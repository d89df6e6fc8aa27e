"""Command-line front end: census counts, extension counts, triple scans,
cocycle counts, defining-system searches, and the self-check suites."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import census
from .census import (
    CensusReport,
    GroupModel,
    attach_nu,
    local_field_model,
    model_presentation,
    nu_extensions,
    nu_local_closed,
    preset_model,
    reports_to_csv,
    tmp_enumerate,
    z1_closed,
)
from .fp import BudgetError, FpVector, vectors_array
from .words import (
    Presentation,
    RamifiedRelatorData,
    demushkin_presentation,
    parse_int,
    preset,
    ramified_presentation,
)

# each config key stands in for one flag; a command reads the keys of the
# flags it takes
CONFIG_KEYS = {"threads": "threads", "tmp_budget": "budget",
               "oracle_budget": "oracle_budget"}
# read as text and converted in main, so bad text exits 1 naming the flag
_INT_FLAGS = ("d", "p", "e", "d2", "threads", "budget", "oracle_budget",
              "local_degree")
# the least value of each settings flag: a value below it is bad input, so
# exit 2 stays a budget verdict
_LEAST = {"threads": 1, "budget": 0, "oracle_budget": 0}


def _setting(value, key, name):
    """The integer text `value` of the setting `key` (a `_LEAST` key), or a
    ValueError naming `name`, the flag, config key or variable it came
    from, for text that is no integer or an integer below the least."""
    value = parse_int(value, name)
    if value < _LEAST[key]:
        raise ValueError(f"{name} must be at least {_LEAST[key]}, got "
                         f"{value}")
    return value


def _add_model_flags(sub):
    sub.add_argument("--model", required=True,
                     choices=["demushkin", "free", "df", "dd", "preset", "file"])
    sub.add_argument("--d", help="rank of the (first) factor")
    sub.add_argument("--q", help="q invariant (integer or 'inf')")
    sub.add_argument("--case", choices=["D1", "D2", "D3", "D4"])
    sub.add_argument("--f",
                     help="secondary exponent for the q=2 relators (or 'inf')")
    sub.add_argument("--e", help="free-factor rank for --model df")
    sub.add_argument("--d2", help="second factor rank for --model dd")
    sub.add_argument("--q2", help="second factor q for --model dd")
    sub.add_argument("--case2", choices=["D1", "D2", "D3", "D4"])
    sub.add_argument("--name", help="preset name for --model preset")
    sub.add_argument("--file", help="input file for --model file")


# the settings flags; each command takes only those it reads
_FLAGS = {
    "--p": dict(required=True, help="the prime"),
    "--json": dict(action="store_true",
                   help="machine-readable errors on stdout"),
    "--config": dict(help="key=value file: budgets and threads only"),
    "--threads": dict(help="worker processes for the oracle"),
    "--budget": dict(help="primitive-form-evaluation budget for scans"),
    "--oracle-budget": dict(
        help="assignment budget for brute-force enumeration"),
    "--extended": dict(
        action="store_true",
        help="raise the enumeration budget to 2^31 assignments"),
}


def _add_flags(sub, *names):
    for name in names:
        sub.add_argument(name, **_FLAGS[name])


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so they exit 1 like any bad input."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="massey-census",
        description="Count surjections onto unitriangular groups and the "
                    "Galois extensions they classify.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    ce = subs.add_parser("count-epi", help="count surjections onto U_n(F_p)")
    _add_model_flags(ce)
    _add_flags(ce, *_FLAGS)
    ce.add_argument("--target", type=int, default=4, choices=[2, 3, 4])
    ce.add_argument("--method", default="formula",
                    choices=["formula", "oracle", "tmp-sum", "tmp_sum"])
    ce.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    ce.add_argument("--progress", action="store_true",
                    help="with --method oracle, report enumeration progress "
                         "on stderr; a run split over several workers "
                         "reports none")

    cx = subs.add_parser("count-extensions",
                         help="count Galois U_n(F_p)-extensions of a p-adic field")
    cx.add_argument("--local-degree", required=True,
                    help="degree of the field over Q_p")
    _add_flags(cx, "--p", "--json")
    cx.add_argument("--q", required=True)
    cx.add_argument("--target", type=int, default=4, choices=[2, 3, 4])
    cx.add_argument("--csv", action="store_true", help="CSV instead of JSON")

    tm = subs.add_parser("tmp", help="count (and list) the census triples")
    _add_model_flags(tm)
    _add_flags(tm, "--p", "--json", "--config", "--budget")
    tm.add_argument("--list", action="store_true", dest="want_list")

    zz = subs.add_parser("z1", help="twisted-cocycle count for an image class")
    _add_model_flags(zz)
    _add_flags(zz, "--p", "--json")
    zz.add_argument("--class", dest="image_class", required=True,
                    help="central, noncentral, any, or a +-joined pair")

    ma = subs.add_parser("massey",
                         help="decide whether a defining system exists")
    _add_model_flags(ma)
    _add_flags(ma, "--p", "--json", "--config", "--oracle-budget",
               "--extended")
    ma.add_argument("--chars", required=True,
                    help="JSON list of characters, e.g. [[1,0,0],[0,1,0]]")

    ve = subs.add_parser("verify", help="run a self-check suite")
    ve.add_argument("--suite", default="desk", choices=["desk", "extended"])
    ve.add_argument("--json", action="store_true", help="rows as JSON")
    _add_flags(ve, "--config", "--threads")

    return parser


def _load_config(path, args):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"config {path} line {ln}"
            if "=" not in line:
                raise ValueError(f"{where} is not key=value: {raw.strip()!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(
                    f"{where}: unknown config key {key!r}; only budgets and "
                    f"thread counts belong here: {', '.join(CONFIG_KEYS)}"
                )
            out[key] = _setting(value, CONFIG_KEYS[key], f"{where}: {key}")
            if CONFIG_KEYS[key] not in args:
                raise ValueError(
                    f"{where}: {args.command} does not read config key "
                    f"{key!r}; it reads only: "
                    + ", ".join(k for k, flag in CONFIG_KEYS.items()
                                if flag in args))
    return out


def _first(*values):
    return next(v for v in values if v is not None)


def _settings(args):
    """The thread count and budgets of the flags the command takes.  A flag
    wins over MASSEY_CENSUS_THREADS (threads only), then the config file,
    then the default."""
    config = _load_config(args.config, args) if args.config else {}
    settings = {}
    if "threads" in args:
        threads, env = args.threads, os.environ.get("MASSEY_CENSUS_THREADS")
        if threads is None and env:
            threads = _setting(env, "threads", "MASSEY_CENSUS_THREADS")
        settings["threads"] = _first(threads, config.get("threads"), 1)
    if "budget" in args:
        settings["tmp_budget"] = _first(args.budget, config.get("tmp_budget"),
                                        census.DEFAULT_TMP_BUDGET)
    # massey always runs the oracle, count-epi only with --method oracle; the
    # default budget lives in the oracle, so only those runs load it
    if ("oracle_budget" in args
            and getattr(args, "method", "oracle") == "oracle"):
        from . import oracle

        settings["oracle_budget"] = _first(
            args.oracle_budget, config.get("oracle_budget"),
            oracle.ORACLE_BUDGET_EXTENDED if args.extended
            else oracle.ORACLE_BUDGET)
    return settings


def _build_model(args, p):
    """Resolve the model flags to (model, presentation, label); either of the
    first two may be None when the input only supports one pathway."""
    kind = args.model
    if kind == "demushkin":
        if args.d is None or args.q is None:
            raise ValueError("--model demushkin needs --d and --q")
        model = GroupModel.demushkin(args.d, args.q, args.case)
        case = model.factors[0][3]
        pres = None
        if args.f is not None:
            pres = demushkin_presentation(args.d, p, args.q, case, f=args.f)
        return model, pres, model.describe()
    if kind == "free":
        if args.d is None:
            raise ValueError("--model free needs --d")
        model = GroupModel.free(args.d)
        return model, None, model.describe()
    if kind == "df":
        if args.d is None or args.q is None or args.e is None:
            raise ValueError("--model df needs --d, --q, and --e")
        model = GroupModel.df(args.d, args.q, args.e, args.case)
        return model, None, model.describe()
    if kind == "dd":
        if None in (args.d, args.q, args.d2, args.q2):
            raise ValueError("--model dd needs --d, --q, --d2, and --q2")
        model = GroupModel.dd(args.d, args.q, args.d2, args.q2,
                              args.case, args.case2)
        return model, None, model.describe()
    if kind == "preset":
        if not args.name:
            raise ValueError("--model preset needs --name")
        return preset_model(args.name), preset(args.name), f"preset({args.name})"
    # file input: a presentation, a relator tensor, or an arithmetic table
    if not args.file:
        raise ValueError("--model file needs --file")
    from .forms import load_input_file

    loaded = load_input_file(args.file)
    if isinstance(loaded, RamifiedRelatorData):
        model = GroupModel.s3(loaded, name=os.path.basename(args.file))
        return model, ramified_presentation(loaded, p), model.describe()
    if isinstance(loaded, Presentation):
        # only a presentation without relators is a structured model: free
        model = None if loaded.relators else GroupModel.free(loaded.rank)
        label = model.describe() if model else f"file({os.path.basename(args.file)})"
        return model, loaded, label
    raise ValueError(f"unsupported input file content: {type(loaded).__name__}")


def _emit(args, payload):
    print(json.dumps(payload))


def _emit_error(args, message):
    if getattr(args, "json", False):
        print(json.dumps({"error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)


def _oracle_report(pres, label, p, target, settings, progress):
    from . import oracle

    t0 = time.monotonic()
    epi = oracle.count_epi_bruteforce(
        pres, target, p, budget=settings["oracle_budget"],
        threads=settings["threads"], progress=progress,
    )
    ms = int((time.monotonic() - t0) * 1000)
    return attach_nu(CensusReport(label, p, target, epi, "oracle", ms))


def _cmd_count_epi(args):
    method = args.method.replace("-", "_")
    # a flag the method never reads is refused, not ignored; the thread
    # variable and config keys are ambient defaults and stay allowed
    unread = (("budget",) if method == "oracle"
              else ("threads", "oracle_budget", "extended", "progress"))
    for name in unread:
        value = getattr(args, name)
        if value is not None and value is not False:
            flag = "--" + name.replace("_", "-")
            raise ValueError(
                f"count-epi --method {args.method} does not read {flag}")
    settings = _settings(args)
    p = args.p
    model, pres, label = _build_model(args, p)
    if method == "oracle":
        if pres is None:
            pres = model_presentation(model, p)
        report = _oracle_report(pres, label, p, args.target, settings,
                                args.progress)
    else:
        if model is None:
            raise ValueError(
                "this input has no structured model; use --method oracle"
            )
        report = nu_extensions(model, p, target=args.target, method=method,
                               budget=settings["tmp_budget"])
    if args.csv:
        print(reports_to_csv([report]), end="")
    else:
        _emit(args, report.to_json_dict())
    return 0


def _cmd_count_extensions(args):
    model = local_field_model(args.local_degree, args.p, args.q)
    report = nu_extensions(model, args.p, target=args.target)
    closed = nu_local_closed(args.local_degree, args.p, args.q, args.target)
    if report.nu != closed:
        raise RuntimeError(
            f"internal consistency: census count {report.nu} disagrees with "
            f"the closed extension count {closed}"
        )
    if args.csv:
        print(reports_to_csv([report]), end="")
    else:
        _emit(args, report.to_json_dict())
    return 0


def _cmd_tmp(args):
    settings = _settings(args)
    model, _pres, label = _build_model(args, args.p)
    if model is None:
        raise ValueError("triple scans need a structured model input")
    count, triples = tmp_enumerate(
        model, args.p, budget=settings["tmp_budget"],
        want_list=args.want_list,
    )
    payload = {"model": label, "p": args.p, "tmp": str(count)}
    if args.want_list:
        rows = vectors_array(model.rank, args.p).tolist()
        payload["triples"] = [[rows[i] for i in t]
                              for t in triples.indices.tolist()]
    _emit(args, payload)
    return 0


def _cmd_z1(args):
    model, _pres, label = _build_model(args, args.p)
    if model is None:
        raise ValueError("cocycle counts need a structured model input")
    cls = args.image_class.replace(",", "+")
    count = z1_closed(model, args.p, cls)
    _emit(args, {"model": label, "p": args.p, "class": cls, "z1": str(count)})
    return 0


def _cmd_massey(args):
    settings = _settings(args)
    p = args.p
    model, pres, label = _build_model(args, p)
    if pres is None:
        pres = model_presentation(model, p)
    try:
        raw = json.loads(args.chars)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--chars is not valid JSON: {exc}") from exc
    if not isinstance(raw, list) or not all(isinstance(c, list) for c in raw):
        raise ValueError("--chars must be a JSON list of coordinate lists")
    for x in (x for c in raw for x in c):
        if type(x) is not int:  # refuse, never truncate, 1.7 or true
            raise ValueError(
                f"--chars coordinates must be integers, got {json.dumps(x)}")
    chars = [FpVector(c, p) for c in raw]
    from . import oracle

    exists = oracle.massey_system_exists(
        pres, chars, p, budget=settings["oracle_budget"]
    )
    _emit(args, {"model": label, "p": p, "k": len(chars), "exists": exists})
    return 0


def _cmd_verify(args):
    from . import verify

    settings = _settings(args)
    rows = verify.run_suite(args.suite, threads=settings["threads"])
    if args.json:
        print(json.dumps({"suite": args.suite, "rows": rows}))
    else:
        print(verify.format_table(rows))
    return 0 if verify.suite_passed(rows) else 3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # until parsing succeeds, errors honour a --json anywhere in argv
    args = argparse.Namespace(json="--json" in argv)
    handlers = {
        "count-epi": _cmd_count_epi,
        "count-extensions": _cmd_count_extensions,
        "tmp": _cmd_tmp,
        "z1": _cmd_z1,
        "massey": _cmd_massey,
        "verify": _cmd_verify,
    }
    try:
        args = build_parser().parse_args(argv)
        for name in _INT_FLAGS:
            value = getattr(args, name, None)
            if value is not None:
                flag = "--" + name.replace("_", "-")
                setattr(args, name, _setting(value, name, flag)
                        if name in _LEAST else parse_int(value, flag))
        return handlers[args.command](args)
    except BudgetError as exc:
        _emit_error(args, str(exc))
        return 2
    except (ValueError, TypeError, OSError, RuntimeError) as exc:
        _emit_error(args, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())

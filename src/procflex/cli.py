"""Command line front end.

Each verb mirrors a library call and is one entry of the table `_VERBS`: its
arguments, one options check and one result builder.  Running a verb and
`verify` both go through that entry, so a stored envelope's options are
checked exactly as argv is.  Instances travel as JSON documents with fields
m, n, demand, supply, edges; rationals are integers or exact strings like
"3/2".  Results are wrapped in a single envelope {schema_version, command,
seed, input, options, result} printed with sorted keys, so equal inputs
produce byte-identical output.  Its bytes equal json.dumps(envelope,
sort_keys=True, indent=2) plus a newline; they are produced as json's C
encoder's compact text and then one C pass that adds the indent=2 layout
(`_indented`), or by that json.dumps call where the pass cannot be built.
`simulate` emits CSV by default (sweeps want columns, not trees); `--format
json` switches it to the envelope.

Each result builder imports the module it runs when it runs, so a verb loads
only its own layer: `validate` needs nothing past core, and only `design`
and `simulate` load numpy.

Exit codes: 0 success, 1 domain errors (infeasible instance, invalid target,
failed verification, a simulation above MAX_SIM_STEPS steps), 2 malformed
documents (an envelope given to verify with mistyped options or input too),
unreadable files or bad usage.  Every failure writes one JSON line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import io
import json
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Any, Callable

from . import native
from .core import ProblemInstance, format_rational, is_feasible, parse_rational
from .core import _is_int, validate_instance
from .errors import ProcflexError, SizeLimitExceeded, VerificationFailed

SCHEMA_VERSION = 1

# Most steps (horizon x reps x eps values) one simulate request may ask for.
# The compiled MaxWeight step loop, drawing with the C Philox fill, runs it in
# about 2 s on a 4x4 graph (22M steps/s on the four-pair graph, 40M on the
# 4x4 diagonal) and 18 s on the 20-chain (2.8M steps/s), measured on two-eps,
# two-replication sweeps of 500 000 steps (50 000 on the chain; Python 3.11,
# gcc 12, one core of a 2-vCPU VM).  The limit stays where the Python loop
# that replaces the kernel without a C compiler finishes: about three minutes
# on the four-pair graph (295k steps/s), two on the 4x4 diagonal (435k) and
# 11 on the 20-chain (74k), in the same run at a tenth of those horizons.  The
# largest sweep in the test suite (gate 07) fits.
MAX_SIM_STEPS = 50_000_000


class DocumentError(Exception):
    """Malformed or unreadable input; rendered with exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # raise rather than print usage, so main reports one JSON line
        raise DocumentError(f"usage: {message}")


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{path} is nested too deeply") from exc


def _instance(doc, where: str) -> ProblemInstance:
    try:
        return validate_instance(doc)
    except (ValueError, TypeError) as exc:
        # structural problems are parse errors; rate/edge domain errors pass
        raise DocumentError(f"{where}: {exc}") from exc


# json uses its C encoder only when indent is None.  So the envelope is
# encoded compactly in C, with the ": " key separator that indent=2 uses, and
# one C pass over that ASCII text adds the rest of indent=2's layout.  Parsed
# Fractions (objective tables read from a file) are written as their
# canonical strings.  Every envelope is a fresh tree of dicts and lists built
# for this one write, so it holds no cycle and the encoder skips its
# circular-reference check.
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ": "), check_circular=False,
                            default=format_rational).encode

_LAYOUT_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* A newline and 2 x depth spaces at out + len (when out is not NULL); returns
   the length after them. */
static int64_t line(char *out, int64_t len, int64_t depth)
{
    if (out) {
        out[len] = '\n';
        memset(out + len + 1, ' ', 2 * depth);
    }
    return len + 1 + 2 * depth;
}

/* The indent=2 layout of the compact JSON text in[0:n], plus a newline,
   written to out when out is not NULL; returns its length.  Outside strings,
   a line break follows each "[", "{" and "," and precedes each "]" and "}",
   except inside an empty "[]" or "{}". */
int64_t layout(const char *in, int64_t n, char *out)
{
    int64_t len = 0, depth = 0;
    for (int64_t i = 0; i < n; i++) {
        char c = in[i];
        if (c == '"') {
            /* a string, copied as it is; a backslash takes the next byte */
            int64_t end = i + 1;
            while (end < n && in[end] != '"')
                end += in[end] == '\\' ? 2 : 1;
            end = end < n ? end + 1 : n;
            if (out)
                memcpy(out + len, in + i, end - i);
            len += end - i;
            i = end - 1;
            continue;
        }
        if ((c == '[' || c == '{') && i + 1 < n && (in[i + 1] == ']' || in[i + 1] == '}')) {
            if (out) {
                out[len] = c;
                out[len + 1] = in[i + 1];
            }
            len += 2;
            i++;
            continue;
        }
        if (c == ']' || c == '}')
            len = line(out, len, --depth);
        if (out)
            out[len] = c;
        len++;
        if (c == '[' || c == '{')
            len = line(out, len, ++depth);
        else if (c == ',')
            len = line(out, len, depth);
    }
    if (out)
        out[len] = '\n';
    return len + 1;
}
"""


@functools.cache
def _layout():
    """The compiled layout pass, or None where it cannot be built or loaded
    (see `native.load`), in which case json's Python encoder lays out."""
    lib = native.load("layout", _LAYOUT_SOURCE)
    if lib is None:
        return None
    fn = lib.layout
    fn.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.c_void_p]
    fn.restype = ctypes.c_int64
    return fn


def _indented(doc) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) + "\n": the compact text
    laid out by the C pass, or that json.dumps call where the pass is missing."""
    layout = _layout()
    if layout is None:
        return json.dumps(doc, sort_keys=True, indent=2, default=format_rational) + "\n"
    data = _COMPACT(doc).encode("ascii")
    out = bytearray(layout(data, len(data), None))
    # a c_char at the start of out, not an array type per length: ctypes
    # keeps every array type it makes
    layout(data, len(data), ctypes.byref(ctypes.c_char.from_buffer(out)))
    return out.decode("ascii")


def _envelope(command: str, seed: int, input_doc, options: dict, result) -> str:
    return _indented(dict(schema_version=SCHEMA_VERSION, command=command, seed=seed,
                          input=input_doc, options=options, result=result))


# ---------------------------------------------------------------------------
# options checks: parsed argv or a stored envelope's options in, the options
# the envelope records out.  Only types and shapes are checked here; values
# out of range are the library's to reject.


def _list_of(ok):
    return lambda value: isinstance(value, list) and all(ok(v) for v in value)


def _or_none(ok):
    return lambda value: value is None or ok(value)


_INT = (_is_int, "an integer")
# canonical strings, or the Fractions an objective tables file was parsed to
_RATIONAL_ROWS = _list_of(_list_of(lambda v: isinstance(v, (str, Fraction))))


def _fields(**spec):
    """A check requiring each key of spec with a value its predicate accepts."""

    def check(opts: dict) -> dict:
        for key, (ok, what) in spec.items():
            if key not in opts or not ok(opts[key]):
                raise DocumentError(f"options need {key!r}: {what}")
        return {key: opts[key] for key in spec}

    return check


def _objective(value) -> bool:
    tables = value.get("tables") if isinstance(value, dict) else None
    return value in ("sum", "final") or _RATIONAL_ROWS(tables)


def _augment_options(opts: dict) -> dict:
    if opts.get("best") is True:
        return {"best": True}
    pair = (lambda v: _list_of(_is_int)(v) and len(v) == 2, "[i, j] unless best is true")
    return _fields(edge=pair)(opts)


def _simulate_options(opts: dict) -> dict:
    options = _fields(
        eps=(_list_of(lambda v: isinstance(v, str)), "a list of rationals"),
        horizon=_INT,
        warmup=(_or_none(_is_int), "null or an integer"),
        reps=_INT,
        levels=(_or_none(_list_of(_is_int)), "null or a list of integers"),
        format=(lambda v: v in ("csv", "json"), "csv or json"),
    )(opts)
    steps = options["horizon"] * options["reps"] * len(options["eps"])
    if steps > MAX_SIM_STEPS:
        raise SizeLimitExceeded(
            f"simulate asks for {steps} steps (horizon x reps x eps values); "
            f"the limit is {MAX_SIM_STEPS}"
        )
    return options


# ---------------------------------------------------------------------------
# result builders: (input, checked options, seed) -> result


def _validate(inst: ProblemInstance, options: dict, seed: int) -> dict:
    out = inst.to_dict()
    out["total"] = format_rational(inst.total)
    out["feasible"] = is_feasible(inst)
    return out


def _decompose(inst: ProblemInstance, options: dict, seed: int) -> dict:
    from .decomposition import crp_decomposition, ssc_basis

    decomp = crp_decomposition(inst)
    out = decomp.to_dict()
    for comp, entry in zip(decomp.components, out["components"]):
        demand = sum(inst.demand_units[i - 1] for i in comp.demands)
        supply = sum(inst.supply_units[j - 1] for j in comp.supplies)
        entry["demand_total"] = format_rational(Fraction(demand, inst.scale))
        entry["supply_total"] = format_rational(Fraction(supply, inst.scale))
    out["crp_graph"] = decomp.dag.to_dict()
    out["ssc_basis"] = [list(v) for v in ssc_basis(decomp)]
    return out


def _design(inst: ProblemInstance, options: dict, seed: int) -> dict:
    from .design import design_flexibility

    res = design_flexibility(inst.demand, inst.supply, options["erp"])
    entries = res.assignment.entries
    return {
        "erp": res.achieved_erp,
        "edge_count": res.edge_count,
        "edges": [list(e) for e in sorted(res.edges)],
        "assignment": [[i, j, str(v)] for (i, j), v in sorted(entries.items())],
        "used_cycle": res.used_cycle,
    }


def _gap(inst: ProblemInstance, options: dict, seed: int) -> dict:
    from .robustness import gap_and_checks

    report, checks = gap_and_checks(inst, options["perturb"] or ())
    out = report.to_dict()
    if options["perturb"] is not None:
        out["perturbations"] = [check.to_dict() for check in checks]
    return out


def _augment(inst: ProblemInstance, options: dict, seed: int) -> dict:
    from .augmentation import add_edge_effect, best_single_edge

    if options.get("best"):
        return best_single_edge(inst)[1].to_dict()
    return add_edge_effect(inst, tuple(options["edge"])).to_dict()


def _plan(inst: None, options: dict, seed: int) -> dict:
    from .planning import plan_schedule

    objective = options["objective"]
    spec = objective["tables"] if isinstance(objective, dict) else objective
    return plan_schedule(options["eta"], options["budget"], spec).to_dict()


def _simulate(inst: ProblemInstance, options: dict, seed: int) -> dict:
    from .queuesim import heavy_traffic_check

    report = heavy_traffic_check(
        inst, options["eps"], horizon=options["horizon"], warmup=options["warmup"],
        seed=seed, replications=options["reps"], arrival_levels=options["levels"],
    )
    return report.to_dict()


def _simulate_csv(inst: ProblemInstance, options: dict, result: dict) -> str | None:
    if options["format"] == "json":
        return None
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["eps"]
    header += [f"q_mean_{i}" for i in range(1, inst.m + 1)]
    header += ["lhs", "rhs", "ratio", "ssc_ratio", "lhs_se", "ssc_se"]
    writer.writerow(header)
    for row in result["rows"]:
        record = [row["eps"]]
        record += [repr(v) for v in row["queue_means"]]
        record += [repr(row["lhs"]), result["rhs"], repr(row["ratio"])]
        record += [repr(row[k]) for k in ("ssc_ratio", "lhs_se", "ssc_se")]
        writer.writerow(record)
    return out.getvalue()


def _input(verb: _Verb, doc, where: str):
    """What a verb's result builder takes from the document it reads."""
    if verb.reads == "instance":
        return _instance(doc, where)
    if verb.reads is None and doc is not None:
        raise DocumentError(f"{where}: this verb takes no input")
    return doc


def _verify(doc, options: dict, seed: int) -> dict:
    """Recompute the result a stored envelope claims, through the verb table."""
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise DocumentError("not a result document with a known schema_version")
    try:
        command, stored_seed, stored_options, input_doc, result = (
            doc[k] for k in ("command", "seed", "options", "input", "result")
        )
    except KeyError as exc:
        raise DocumentError(f"envelope missing field: {exc}") from exc
    verb = _VERBS.get(command) if isinstance(command, str) else None
    if verb is None or verb.reads == "document":
        raise DocumentError(f"cannot verify command {command!r}")
    if not _is_int(stored_seed) or not isinstance(stored_options, dict):
        raise DocumentError("envelope seed must be an integer and options an object")
    inst = _input(verb, input_doc, "envelope input")
    if verb.build(inst, verb.check(stored_options), stored_seed) != result:
        raise VerificationFailed(f"stored result for {command!r} does not match its replay")
    return {"verified": True, "command": command}


# ---------------------------------------------------------------------------
# argv conversions


def _edge_arg(text: str) -> list[int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("edge must look like i,j")
    try:
        return [int(parts[0]), int(parts[1])]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"edge must be two integers: {exc}")


def _count_arg(text: str) -> int:
    """Step counts, read exactly; scientific notation like 1e7 is accepted."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not value.is_finite() or value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"{text} is not a whole number")
    if value > MAX_SIM_STEPS:
        # before int(), which would spell out an exponent like 1e999999999
        raise SizeLimitExceeded(f"{text} steps exceed the limit of {MAX_SIM_STEPS}")
    return int(value)


def _eps_arg(text: str) -> list[str]:
    values = [part.strip() for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("need at least one eps value")
    return values


def _levels_arg(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"levels must be integers: {exc}")


def _from_file(read):
    """argparse type for an option held in a JSON file: a thunk that _run calls
    after reading the instance, so a bad instance is reported first."""
    return lambda path: functools.partial(read, path)


def _perturb_file(path: str) -> list:
    doc = _load_json(path)
    if isinstance(doc, dict) and "omegas" in doc:
        omegas = doc["omegas"]
    elif isinstance(doc, dict) and "omega" in doc:
        omegas = [doc["omega"]]
    else:
        raise DocumentError(f"{path}: expected an object with 'omega' or 'omegas'")
    if not isinstance(omegas, list) or not all(isinstance(o, list) for o in omegas):
        raise DocumentError(f"{path}: omegas must be lists of rationals")
    try:
        for o in omegas:
            for w in o:
                parse_rational(w)  # an int or an exact string, never a JSON float
    except (ValueError, TypeError) as exc:
        raise DocumentError(f"{path}: {exc}") from exc
    return [[str(w) for w in o] for o in omegas]


def _tables_file(path: str) -> dict:
    doc = _load_json(path)
    if not isinstance(doc, list) or not all(isinstance(row, list) for row in doc):
        raise DocumentError(f"{path}: objective tables must be a list of rows")
    try:
        values = [[parse_rational(v) for v in row] for row in doc]
    except (ValueError, TypeError) as exc:
        raise DocumentError(f"{path}: {exc}") from exc
    return {"tables": values}


def _objective_arg(text: str):
    return _from_file(_tables_file)(text[5:]) if text.startswith("file:") else text


# ---------------------------------------------------------------------------
# the verb table


@dataclass(frozen=True)
class _Verb:
    help: str
    setup: Callable[[argparse.ArgumentParser], Any]
    check: Callable[[dict], dict]
    build: Callable[[Any, dict, int], dict]
    # positional input: an instance file, a result document, or none
    reads: str | None = "instance"
    # output that replaces the envelope, or None to print the envelope
    write: Callable[[Any, dict, dict], str | None] = lambda inst, options, result: None


def _augment_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--edge", type=_edge_arg, help="candidate edge i,j")
    group.add_argument("--best", action="store_true", help="search for the best edge")


def _plan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=int, required=True, help="initial number of pairs")
    p.add_argument("--budget", type=int, required=True, help="edges to add, one per step")
    p.add_argument("--objective", type=_objective_arg, default="sum",
                   help="sum, final, or file:<tables.json>")


def _simulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=_eps_arg, required=True, help="comma-separated list")
    p.add_argument("--horizon", type=_count_arg, required=True)
    p.add_argument("--warmup", type=_count_arg, default=None, help="default horizon/10")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--levels", type=_levels_arg, default=None, help="arrival highs")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


_VERBS = {
    "validate": _Verb("check an instance file", lambda p: None, _fields(), _validate),
    "decompose": _Verb("redundant edges, blocks, ERP, CRP graph",
                       lambda p: None, _fields(), _decompose),
    "design": _Verb("sparsest graph for a target ERP (reads only demand and supply)",
                    lambda p: p.add_argument("--erp", type=int, required=True,
                                             help="target component count"),
                    _fields(erp=_INT), _design),
    "gap": _Verb("pooling gap and perturbation harness",
                 lambda p: p.add_argument("--perturb", type=_from_file(_perturb_file),
                                          help="JSON file with omega or omegas"),
                 _fields(perturb=(_or_none(_RATIONAL_ROWS), "null or rows of rationals")),
                 _gap),
    "augment": _Verb("single-edge addition effect", _augment_args, _augment_options,
                     _augment),
    "plan": _Verb("multi-step upgrade schedule for a diagonal start", _plan_args,
                  _fields(eta=_INT, budget=_INT,
                          objective=(_objective, "sum, final or {tables: rows}")),
                  _plan, reads=None),
    "simulate": _Verb("MaxWeight runs and heavy-traffic ratios", _simulate_args,
                      _simulate_options, _simulate, write=_simulate_csv),
    "verify": _Verb("replay a result document and compare", lambda p: None, _fields(),
                    _verify, reads="document"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="procflex", description="Flexibility-graph analysis and MaxWeight simulation."
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, parents=[common], help=verb.help)
        if verb.reads:
            p.add_argument(verb.reads, help=f"{verb.reads} JSON path, or - for stdin")
        verb.setup(p)
    return parser


_PARSER = _build_parser()


def _run(args: argparse.Namespace) -> str:
    verb = _VERBS[args.command]
    path = getattr(args, verb.reads) if verb.reads else None
    inst = _input(verb, None if path is None else _load_json(path), path)
    options = verb.check({k: v() if callable(v) else v for k, v in vars(args).items()})
    result = verb.build(inst, options, args.seed)
    text = verb.write(inst, options, result)
    if text is None:
        input_doc = None
        if verb.build is _validate:
            # validate's result holds the instance's document already
            input_doc = {key: result[key] for key in ("m", "n", "demand", "supply", "edges")}
        elif verb.reads == "instance":
            input_doc = inst.to_dict()
        text = _envelope(args.command, args.seed, input_doc, options, result)
    return text


def main(argv=None) -> int:
    try:
        sys.stdout.write(_run(_PARSER.parse_args(argv)))
        return 0
    except SystemExit as exc:
        # --help
        return exc.code if isinstance(exc.code, int) else 2
    except (DocumentError, ProcflexError, ValueError, TypeError) as exc:
        # past DocumentError, these are the library rejecting a requested target
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(diagnostic, sort_keys=True) + "\n")
        return 2 if isinstance(exc, DocumentError) else 1


if __name__ == "__main__":
    sys.exit(main())

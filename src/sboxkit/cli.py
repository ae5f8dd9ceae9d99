"""Command line front end: analyze, gen, search, avalanche, heatmap.

analyze, avalanche and heatmap read an S-box file (sbox, --base); analyze
and avalanche write a report (--format, --name, -o).  "-" is stdout for
every text output; heatmap -o and --csv and avalanche --save-pairs, which
write binary or paired files, refuse it, and no two files of one command,
inputs or outputs, may name the same file.  Exit codes: 0 success, 2
unreadable input or output path, 3 invalid configuration, 4 precondition
violation.  Every randomized command takes an explicit --seed; there is no
silent entropy default.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from .core import (
    _TOKENS,
    FAMILIES,
    NotBijectiveError,
    SBox,
    SboxParseError,
    build_monomial_sbox,
    default_context,
    format_sbox,
    GFContext,
    parse_sbox,
)
from .heatmap import (
    KINDS,
    HeatmapSpec,
    heatmap_values,
    render_heatmap,
    write_matrix_csv,
    write_ppm,
)
from .metrics import CSV_HEADER, METRICS, full_report
from .search import CycleSpec, SearchConfig, builtin_cycle_specs, run_search
from .spn import (
    AVALANCHE_CSV_HEADER,
    SpnConfig,
    avalanche_experiment,
    generate_pairs,
    load_pairs,
    save_pairs,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_PRECONDITION = 4

DEFAULT_TRIALS = 10000
_LOG_ROWS = 1 << 16  # --log-values rows formatted per write


class _ArgumentParser(argparse.ArgumentParser):
    # bad flags are configuration errors, not input parse errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _integer(text: str, base: int = 10) -> int:
    """An integer option: an optional '-', then a base-10 token, as S-box files and --cycles read,
    or for --irreducible a base-0 one; no '+', underscore, space or other digit."""
    if not _TOKENS[base].fullmatch(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer of ASCII digits")
    try:
        return int(text, base)
    except ValueError:  # the interpreter's limit on decimal digits; too long a text to echo
        raise argparse.ArgumentTypeError(f"the integer has more than {sys.get_int_max_str_digits():,} digits") from None


def _read_sbox(args) -> SBox:
    try:
        text = Path(args.sbox).read_text()
    except OSError as exc:
        raise SboxParseError(f"cannot read {args.sbox}: {exc}") from None
    except UnicodeDecodeError as exc:  # a ValueError, which would read as a configuration error
        raise SboxParseError(f"{args.sbox} is not UTF-8 text: {exc}") from None
    return parse_sbox(text, base=args.base)


def _write_text(path: str, chunks) -> None:
    """Write the strings of `chunks`, in order, through one handle: the file at path, or stdout for "-"."""
    if path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as f:
            f.writelines(chunks)


def _check_outputs(inputs: dict, binary: dict, text: dict, dash_error: str = "") -> None:
    """Refuse, before anything is written, "-" for a binary or paired output (it would create a file of that
    name) and any two of the command's files, option -> path or None, resolving to the same file: an output
    would replace an input or another output.  A text output "-" is stdout, not a file."""
    if "-" in binary.values():
        raise ValueError(dash_error)
    files = {**inputs, **binary, **{opt: path for opt, path in text.items() if path != "-"}}
    named = [(opt, path) for opt, path in files.items() if path is not None]
    for (a, path_a), (b, path_b) in itertools.combinations(named, 2):
        if Path(path_a).resolve() == Path(path_b).resolve():
            raise ValueError(f"{a} and {b} name the same file: {path_b}")


def _write_report(args, header: str, report) -> None:
    """One MetricReport or AvalancheReport as JSON or as a CSV row under header."""
    name = args.name or Path(args.sbox).stem
    if args.format == "csv":
        _write_text(args.out, [header + "\n" + report.csv_row(name) + "\n"])
    else:
        _write_text(args.out, [json.dumps({"name": name, **report.to_dict()}, indent=2) + "\n"])


def cmd_analyze(args) -> int:
    _check_outputs({"sbox": args.sbox}, {}, {"-o": args.out})
    report = full_report(_read_sbox(args), with_degree=args.with_degree, with_ai=args.with_ai)
    _write_report(args, CSV_HEADER, report)
    return EXIT_OK


def cmd_gen(args) -> int:
    ctx = default_context(args.n) if args.irreducible is None else GFContext(args.n, args.irreducible)
    sbox = build_monomial_sbox(ctx, args.family, i=args.i, e=args.e)
    _write_text(args.out, [format_sbox(sbox)])
    return EXIT_OK


def _parse_cycles(text: str) -> CycleSpec | None:
    if text == "none":
        return None
    named = builtin_cycle_specs()
    if text in named:
        return named[text]
    return CycleSpec.parse(text)


def cmd_search(args) -> int:
    _check_outputs({}, {}, {"-o": args.out, "--log-values": args.log_values})
    config = SearchConfig(
        n=args.n,
        metric=args.metric,
        tries=args.tries,
        seed=args.seed,
        cycle_spec=_parse_cycles(args.cycles),
        workers=args.workers,
    )
    value_log = [] if args.log_values else None
    result = run_search(config, value_log=value_log)
    doc = result.to_dict()
    print(f"best {config.metric} = {doc['best_value']}  mean = {doc['mean_value']}")
    if args.out:
        _write_text(args.out, [json.dumps(doc, indent=2) + "\n"])
    if args.log_values:
        blocks = ("".join(f"{i},{v}\n" for i, v in enumerate(value_log[lo : lo + _LOG_ROWS], lo))
                  for lo in range(0, len(value_log), _LOG_ROWS))
        _write_text(args.log_values, itertools.chain(["index,raw_value\n"], blocks))
    return EXIT_OK


def cmd_avalanche(args) -> int:
    _check_outputs({"sbox": args.sbox, "--pairs": args.pairs}, {"--save-pairs": args.save_pairs}, {"-o": args.out},
                   "--save-pairs must name a file, not '-'")
    cfg = SpnConfig(sbox=_read_sbox(args), rounds=args.rounds)
    if args.pairs:
        if args.seed is not None:
            raise ValueError("--seed cannot be combined with --pairs, which fixes every trial")
        pairs = load_pairs(args.pairs)
        if args.trials is not None and args.trials != len(pairs):
            raise ValueError(f"trials={args.trials} does not match {len(pairs)} stored pairs")
    else:
        if args.seed is None:
            raise ValueError("--seed is required unless --pairs is given")
        pairs = generate_pairs(DEFAULT_TRIALS if args.trials is None else args.trials, args.seed)
        if args.save_pairs:
            save_pairs(args.save_pairs, pairs)
    _write_report(args, AVALANCHE_CSV_HEADER, avalanche_experiment(cfg, pairs))
    return EXIT_OK


def cmd_heatmap(args) -> int:
    out = args.out or f"{Path(args.sbox).stem}_{args.table}.ppm"
    csv_path = args.csv or str(Path(out).with_suffix(".csv"))
    _check_outputs({"sbox": args.sbox}, {"-o": out, "--csv": csv_path}, {},
                   "heatmap -o and --csv must name files, not '-'")
    spec = HeatmapSpec(kind=args.table, scale=args.scale)  # checked before the table is built
    values = heatmap_values(_read_sbox(args), args.table)
    rgb, info = render_heatmap(values, spec)
    write_ppm(out, rgb)
    write_matrix_csv(csv_path, values)
    print(
        f"{out}: {rgb.shape[1]}x{rgb.shape[0]} scale {info['scale']} "
        f"extreme {info['max_abs']} markers {info['marker_count']}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="sboxkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sbox_in = argparse.ArgumentParser(add_help=False)
    sbox_in.add_argument("sbox")
    sbox_in.add_argument("--base", type=_integer, choices=(10, 16), default=10)
    report_out = argparse.ArgumentParser(add_help=False)
    report_out.add_argument("--format", choices=("json", "csv"), default="json")
    report_out.add_argument("--name")
    report_out.add_argument("-o", "--out", default="-")

    p = sub.add_parser("analyze", parents=[sbox_in, report_out], help="full metric report for an S-box file")
    p.add_argument("--with-degree", action="store_true")
    p.add_argument("--with-ai", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gen", help="emit a power-map S-box")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--i", type=_integer)
    p.add_argument("--e", type=_integer)
    p.add_argument("--irreducible", type=lambda text: _integer(text, 0), help="override modulus mask, e.g. 0x11b")
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("search", help="random permutation search")
    p.add_argument("--metric", choices=tuple(METRICS), required=True)
    p.add_argument("--tries", type=_integer, required=True)
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--workers", type=_integer, default=1)
    p.add_argument("--n", type=_integer, default=8)
    p.add_argument("--cycles", default="none",
                   help=f"none, a built-in name ({', '.join(builtin_cycle_specs())}), or a comma list")
    p.add_argument("-o", "--out")
    p.add_argument("--log-values", help="write every candidate's raw value to this CSV")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("avalanche", parents=[sbox_in, report_out], help="SPN single-bit diffusion experiment")
    p.add_argument("--rounds", type=_integer, required=True)
    p.add_argument("--trials", type=_integer,
                   help=f"pairs to generate (default {DEFAULT_TRIALS}); with --pairs, the count the file must hold")
    p.add_argument("--seed", type=_integer)
    pairs = p.add_mutually_exclusive_group()
    pairs.add_argument("--pairs", help="reuse a stored (plaintext, key) pair file")
    pairs.add_argument("--save-pairs", help="store the generated pair set here")
    p.set_defaults(func=cmd_avalanche)

    p = sub.add_parser("heatmap", parents=[sbox_in], help="render a DDT/LAT pixmap plus CSV dump")
    p.add_argument("--table", choices=tuple(KINDS), default="lat")
    p.add_argument("--scale", type=_integer)
    p.add_argument("-o", "--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_heatmap)

    return parser


# the first matching class wins: SboxParseError and NotBijectiveError are ValueErrors,
# and so is MonomialConditionError
_EXIT_CODES = (
    (SboxParseError, EXIT_PARSE),
    (NotBijectiveError, EXIT_PRECONDITION),
    (ValueError, EXIT_CONFIG),
    (OSError, EXIT_PARSE),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: analyze, gen, search, avalanche, heatmap.

Exit codes: 0 success, 2 input parse error, 3 invalid configuration,
4 precondition violation.  Every randomized command takes an explicit
--seed; there is no silent entropy default.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import (
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


class _ArgumentParser(argparse.ArgumentParser):
    # bad flags are configuration errors, not input parse errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _read_sbox(path: str, base: int) -> SBox:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SboxParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:  # a ValueError, which would read as a configuration error
        raise SboxParseError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_sbox(text, base=base)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_analyze(args) -> int:
    sbox = _read_sbox(args.input, args.base)
    report = full_report(sbox, with_degree=args.with_degree, with_ai=args.with_ai)
    name = args.name or Path(args.input).stem
    if args.format == "csv":
        _write_text(args.out, CSV_HEADER + "\n" + report.csv_row(name) + "\n")
    else:
        _write_text(args.out, report.to_json(name))
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.irreducible is not None:
        ctx = GFContext(args.n, int(args.irreducible, 0))
    else:
        ctx = default_context(args.n)
    sbox = build_monomial_sbox(ctx, args.family, i=args.i, e=args.e)
    _write_text(args.out, format_sbox(sbox))
    return EXIT_OK


def _parse_cycles(text: str) -> CycleSpec | None:
    if text == "none":
        return None
    named = builtin_cycle_specs()
    if text in named:
        return named[text]
    return CycleSpec.parse(text)


def cmd_search(args) -> int:
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
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    if args.log_values:
        with open(args.log_values, "w") as fh:
            fh.write("index,raw_value\n")
            fh.writelines(f"{i},{v}\n" for i, v in enumerate(value_log))
    return EXIT_OK


def cmd_avalanche(args) -> int:
    sbox = _read_sbox(args.sbox, args.base)
    cfg = SpnConfig(sbox=sbox, rounds=args.rounds)
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
    report = avalanche_experiment(cfg, pairs)
    name = args.name or Path(args.sbox).stem
    if args.format == "csv":
        _write_text(args.out, AVALANCHE_CSV_HEADER + "\n" + report.csv_row(name) + "\n")
    else:
        _write_text(args.out, json.dumps({"name": name, **report.to_dict()}, indent=2) + "\n")
    return EXIT_OK


def cmd_heatmap(args) -> int:
    sbox = _read_sbox(args.sbox, args.base)
    values = heatmap_values(sbox, args.table)
    spec = HeatmapSpec(kind=args.table, scale=args.scale)
    rgb, info = render_heatmap(values, spec)
    out = args.out or f"{Path(args.sbox).stem}_{args.table}.ppm"
    csv_path = args.csv or str(Path(out).with_suffix(".csv"))
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

    p = sub.add_parser("analyze", help="full metric report for an S-box file")
    p.add_argument("input")
    p.add_argument("--base", type=int, choices=(10, 16), default=10)
    p.add_argument("--with-degree", action="store_true")
    p.add_argument("--with-ai", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--name")
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gen", help="emit a power-map S-box")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--irreducible", help="override modulus mask, e.g. 0x11b")
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("search", help="random permutation search")
    p.add_argument("--metric", choices=tuple(METRICS), required=True)
    p.add_argument("--tries", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--cycles", default="none",
                   help="none, a built-in name (64x4, 16x16, 4x64, 256x1, rijndael), or a comma list")
    p.add_argument("-o", "--out")
    p.add_argument("--log-values", help="write every candidate's raw value to this CSV")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("avalanche", help="SPN single-bit diffusion experiment")
    p.add_argument("sbox")
    p.add_argument("--base", type=int, choices=(10, 16), default=10)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--trials", type=int,
                   help=f"pairs to generate (default {DEFAULT_TRIALS}); with --pairs, the count the file must hold")
    p.add_argument("--seed", type=int)
    pairs = p.add_mutually_exclusive_group()
    pairs.add_argument("--pairs", help="reuse a stored (plaintext, key) pair file")
    pairs.add_argument("--save-pairs", help="store the generated pair set here")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--name")
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(func=cmd_avalanche)

    p = sub.add_parser("heatmap", help="render a DDT/LAT pixmap plus CSV dump")
    p.add_argument("sbox")
    p.add_argument("--base", type=int, choices=(10, 16), default=10)
    p.add_argument("--table", choices=tuple(KINDS), default="lat")
    p.add_argument("--scale", type=int)
    p.add_argument("-o", "--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_heatmap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SboxParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotBijectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:  # MonomialConditionError too: it is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

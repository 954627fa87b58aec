"""Command-line driver.

Subcommands: embed, extract, attack, security-test, sweep, show-config.
Exit codes: 0 success, 1 recoverable pipeline error, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import partial

from .bits import BitString, StegoKey
from .config import PipelineConfig, default_config, dumps, load_config
from .errors import MalformedInput, StegoError
from .pipeline import (derive_key, rows_to_jsonl, run_attack, run_embed,
                       run_extract, run_sweep)
from .security import run_security_test


def _add_common(parser: argparse.ArgumentParser,
                flags=("--key", "--seed", "--out")) -> None:
    """--config plus those of the other common flags the subcommand reads."""
    parser.add_argument("--config", metavar="FILE",
                        help="INI config file (defaults used when omitted)")
    if "--key" in flags:
        parser.add_argument("--key", metavar="HEX",
                            help="64-character hex key (overrides config)")
    if "--seed" in flags:
        parser.add_argument("--seed", type=int, metavar="N",
                            help="run seed (overrides config)")
    if "--out" in flags:
        parser.add_argument("--out", metavar="DIR", default=".",
                            help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqstego",
        description="Distribution-preserving token steganography pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    # no prefix matching: `sweep --seed 3` must not mean `--seeds 3`
    add = partial(sub.add_parser, allow_abbrev=False)

    p = add("embed", help="embed a message file into stego files")
    p.add_argument("message_file")
    _add_common(p)

    p = add("extract", help="extract a message from stego files")
    p.add_argument("image_file")
    p.add_argument("--text", metavar="FILE",
                   help="companion correction-text file")
    p.add_argument("--truth", metavar="FILE",
                   help="truth sidecar for scoring (from embed)")
    _add_common(p)

    p = add("attack", help="apply the configured channel to an image file")
    p.add_argument("image_file")
    # the attack reads only the configured channel
    _add_common(p, flags=("--out",))

    p = add("security-test", help="cover-vs-stego statistical battery")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--variant", choices=("stego", "cover", "biased"),
                   default="stego")
    _add_common(p)

    p = add("sweep", help="metric sweep over channel or max-token variants")
    p.add_argument("--channels", metavar="SPECS",
                   help="semicolon-separated channel specs, e.g. "
                        "'gaussian:0.005;quantize:32'")
    p.add_argument("--max-tokens", metavar="LIST",
                   help="comma-separated max_tokens values, e.g. 50,100,200")
    p.add_argument("--seeds", type=int, default=5,
                   help="seeds per variant")
    p.add_argument("--message-bits", type=int, default=500)
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="parallel workers")
    # each run's seed is its index in range(--seeds)
    _add_common(p, flags=("--key", "--out"))

    p = add("show-config", help="print the effective config")
    _add_common(p, flags=("--key", "--seed"))
    return parser


def _load(args) -> tuple[PipelineConfig, StegoKey | None]:
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "key", None):
        cfg = replace(cfg, key_hex=args.key)
    key = derive_key(cfg) if cfg.key_hex else None
    return cfg, key


def _read_message(path) -> BitString:
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read message file: {exc}") from None
    text = data.decode("ascii", errors="ignore")
    stripped = "".join(text.split())
    if stripped and set(stripped) <= {"0", "1"}:
        return BitString.from01(stripped)
    return BitString.from_bytes(data)


def _prepare_out(out_dir) -> None:
    """Create the output directory before any pipeline work starts."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise MalformedInput(f"cannot use --out {out_dir!r}: {exc}") from None


def _emit(obj, out_dir, name: str) -> None:
    path = os.path.join(out_dir, name)
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True, default=str)
    print(json.dumps(obj, indent=2, sort_keys=True, default=str))


def _run(args) -> int:
    cfg, key = _load(args)
    if args.command == "show-config":
        print(dumps(cfg), end="")
        return 0
    _prepare_out(args.out)
    if args.command == "embed":
        message = _read_message(args.message_file)
        manifest = run_embed(cfg, message, args.out, key)
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    if args.command == "extract":
        message, info = run_extract(cfg, args.image_file, args.text, key,
                                    args.truth)
        with open(os.path.join(args.out, "message.txt"), "w") as f:
            f.write(message.to01() + "\n")
        _emit(info, args.out, "extract_metrics.json")
        return 0
    if args.command == "attack":
        out_path = os.path.join(args.out, "attacked.vqi")
        info = run_attack(cfg, args.image_file, out_path)
        info["output"] = out_path
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    if args.command == "security-test":
        report = run_security_test(cfg, args.samples, args.variant)
        _emit(report.to_dict(), args.out, "security_report.json")
        return 0
    if args.command == "sweep":
        channels = (args.channels.split(";") if args.channels else None)
        try:
            max_tokens = ([int(v) for v in args.max_tokens.split(",")]
                          if args.max_tokens else None)
        except ValueError:
            raise MalformedInput(
                f"--max-tokens {args.max_tokens!r} is not a comma-separated "
                f"list of integers") from None
        result = run_sweep(cfg, channels, max_tokens, n_seeds=args.seeds,
                           jobs=args.jobs, message_bits=args.message_bits)
        with open(os.path.join(args.out, "sweep_rows.jsonl"), "w") as f:
            f.write(rows_to_jsonl(result["rows"]))
        with open(os.path.join(args.out, "sweep_table.txt"), "w") as f:
            f.write(result["table"] + "\n")
        print(result["table"])
        return 0
    raise MalformedInput(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StegoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

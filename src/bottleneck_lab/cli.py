"""Command-line front end: ingest distributions, compute boundary curves,
closed forms and verification suites, and emit CSV curves with reproducible
manifests."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import stat
import sys
import tempfile
from pathlib import Path

from . import __version__
from .acceptance import SUITES
from .closed_forms import (
    CLOSED_FORM_CSV_HEADER,
    CLOSED_FORM_LAWS,
    BscInstance,
    closed_form_table,
)
from .core import ConfigError, bsc_source, load_source, restrict_source
from .sweep import CURVE_CSV_HEADER, PROBLEM_FRAMES, curve_csv_text, problem_curve

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3


def _file_mode(path: Path) -> int:
    """Mode for writing path: an existing file's own, else what open()
    would give a new file under the current umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    mode = _file_mode(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            os.fchmod(fh.fileno(), mode)  # mkstemp makes it 0600 whatever the umask
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_outputs(
    output: str,
    text: str,
    command: str,
    input_digest: str,
    parameters: dict,
    seed: int,
) -> None:
    out = Path(output)
    _atomic_write(out, text)
    manifest = {
        "command": command,
        "input_digest": input_digest,
        "parameters": parameters,
        "tool_version": __version__,
        "seed": seed,
    }
    _atomic_write(
        out.with_suffix(out.suffix + ".manifest.json"),
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
    )


def _parse_bsc(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--bsc expects 'q,delta', got {text!r}")
    return float(parts[0]), float(parts[1])


def _resolve_source(args) -> tuple:
    """Returns (q, T, digest) from --input or --bsc."""
    if (args.input is None) == (args.bsc is None):
        raise ValueError("exactly one of --input or --bsc is required")
    if args.input is not None:
        # Parse the bytes that are hashed, so the digest describes them.
        data = Path(args.input).read_bytes()
        marginal, channel = load_source(json.loads(data.decode("utf-8")))
        digest = hashlib.sha256(data).hexdigest()
    else:
        marginal, channel = restrict_source(*bsc_source(*_parse_bsc(args.bsc)))
        digest = hashlib.sha256(f"bsc:{args.bsc}".encode()).hexdigest()
    return marginal, channel, digest


def cmd_curve(args) -> int:
    marginal, channel, digest = _resolve_source(args)
    curves = problem_curve(
        marginal,
        channel,
        args.problem,
        args.direction,
        beta=args.beta,
        frame=args.frame,
        resolution=args.resolution,
    )
    if args.direction != "both":
        curves = (curves,)
    rows = "".join(curve_csv_text(curve, args.problem) for curve in curves)
    text = ",".join(CURVE_CSV_HEADER) + "\n" + rows
    params = {
        "problem": args.problem,
        "direction": args.direction,
        "frame": args.frame,
        "beta": args.beta,
        "resolution": args.resolution,
        "input": args.input,
        "bsc": args.bsc,
    }
    _write_outputs(args.output, text, "curve", digest, params, seed=0)
    return EXIT_OK


def cmd_closed_form(args) -> int:
    q, delta = _parse_bsc(args.bsc)
    inst = BscInstance(q=q, delta=delta)
    rows = closed_form_table(inst, args.law, beta=args.beta, points=args.points)
    digest = hashlib.sha256(f"bsc:{args.bsc}".encode()).hexdigest()
    params = {"law": args.law, "beta": args.beta, "points": args.points, "bsc": args.bsc}
    # Every field is a float repr or empty, so no field needs CSV quoting.
    text = "".join(",".join(fields) + "\n" for fields in [CLOSED_FORM_CSV_HEADER, *rows])
    _write_outputs(args.output, text, "closed-form", digest, params, seed=0)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    passed = True
    for name in names:
        result = SUITES[name]()
        print(result.line(), flush=True)
        passed = passed and result.passed
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bottleneck-lab",
        description=(
            "Boundaries of the achievable f-information region for a Markov "
            "chain W -> X -> Y over a fixed joint source"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="compute a boundary curve and export CSV")
    curve.add_argument("--input", help="joint distribution JSON file")
    curve.add_argument("--bsc", help="binary symmetric shorthand: q,delta")
    curve.add_argument("--problem", choices=list(PROBLEM_FRAMES), required=True)
    curve.add_argument("--beta", type=float, default=None)
    curve.add_argument("--direction", choices=["lower", "upper", "both"], default="both")
    curve.add_argument("--resolution", type=int, default=None)
    frames = dict.fromkeys(frame for table in PROBLEM_FRAMES.values() for frame in table)
    curve.add_argument("--frame", choices=list(frames), default=None)
    curve.add_argument("--output", required=True)
    curve.set_defaults(func=cmd_curve)

    closed = sub.add_parser("closed-form", help="exact binary-symmetric tables")
    closed.add_argument("--bsc", required=True)
    closed.add_argument("--law", choices=CLOSED_FORM_LAWS, required=True)
    closed.add_argument("--beta", type=float, default=None)
    closed.add_argument("--points", type=int, default=101)
    closed.add_argument("--output", required=True)
    closed.set_defaults(func=cmd_closed_form)

    verify = sub.add_parser("verify", help="run one acceptance suite, or all of them")
    verify.add_argument("--suite", choices=[*sorted(SUITES), "all"], required=True)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())

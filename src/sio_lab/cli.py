"""Command-line entry point: sio-lab <subcommand>.

Subcommands: generate, check-growth, check-kernel, good-radii, pairing,
converge, report. A JSON config file (--config) holds one object, and may
supply any flag value of its subcommand. A key is the flag's long name
without its dashes ("r-min", "lambda") or its dest ("r_min", "lam"); any
other key is a usage error. Each value is parsed as if typed, a string as
it is and any other value as its JSON text, before the command line's own
flags, so an explicit flag overrides the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .errors import BudgetError, Check, InputError, json_shape
from .generators import GeneratorSpec, generate
from .good_radii import (GoodSetParams, interval_set_to_file, is_good_radius,
                         materialize_good_set, select_good_radius_near)
from .kernels import (KernelSpec, antisymmetry_pass, size_bound_pass,
                      sweep_pair_tiles)
from .measure import (growth_constant, load_measure, normalize,
                      radial_pushforward, save_measure)
from .operator import compute_pairing_trace, simple_function_from_json
from .suite import (SuiteConfig, emit_report, parse_eps_grid,
                    run_convergence_suite, trace_csv_lines)


def _threads(text: str) -> int:
    """A worker count for argparse: below 1 is a usage error."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _fraction(text: str) -> Fraction:
    """A Fraction for argparse: 1/0, like malformed text, is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid Fraction value: {text!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file supplying defaults for flags")


def _add_threads(p: argparse.ArgumentParser) -> None:
    """--threads, for the subcommands that walk pair tiles on threads."""
    p.add_argument("--threads", type=_threads, default=1)


def _read_json(path: str):
    return json.loads(Path(path).read_text())


def _load(parser: argparse.ArgumentParser, what: str, path: str,
          load=_read_json):
    """load(path), where a file that cannot be read, holds malformed JSON
    or text, or that load rejects with InputError (a bad value, or JSON of
    the wrong shape), is a usage error naming it."""
    try:
        return load(path)
    except OSError as exc:
        parser.error(f"cannot read {what} {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        parser.error(f"{what} {path} is not valid JSON or text: {exc}")
    except InputError as exc:
        parser.error(f"{what} {path}: {exc}")


def _config_flags(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The JSON object in `path` as --flag=value tokens for `parser`: a
    string as it is, any other value as its JSON text. A key is a flag's
    long name without its dashes, or the flag's dest; any other key, help
    and config included, is a usage error, and so is a file that cannot
    be read or holds no valid JSON."""
    values = _load(parser, "config file", path)
    if not isinstance(values, dict):
        parser.error(f"config file {path} must hold a JSON object")
    flags = {}
    for a in parser._actions:
        if a.dest not in ("help", "config"):
            flag = a.option_strings[0]
            flags[flag[2:]] = flags[a.dest] = flag
    for key in values:
        if key not in flags:
            parser.error(f"config key {key!r} names no flag")
    return [f"{flags[key]}={v if isinstance(v, str) else json.dumps(v)}"
            for key, v in values.items()]


def _eps_grid(text: str) -> tuple[float, ...]:
    """parse_eps_grid for argparse: a malformed grid is a usage error."""
    try:
        return parse_eps_grid(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _kernel_from_args(args) -> KernelSpec:
    """The KernelSpec of the --kernel family. A flag of the other family,
    typed or from --config, is a usage error: it would be ignored."""
    riesz = {f: v for f, v in (("i", args.riesz_i), ("n", args.riesz_n))
             if v is not None}
    if args.kernel == "riesz":
        if args.kernel_file is not None:
            args.parser.error("--kernel-file needs --kernel custom")
        return KernelSpec(family="coordinate_riesz", **riesz)
    if riesz:
        args.parser.error(f"--riesz-{next(iter(riesz))} needs --kernel riesz")
    if not args.kernel_file:
        args.parser.error("--kernel custom requires --kernel-file")
    expr = _load(args.parser, "kernel file", args.kernel_file,
                 lambda path: Path(path).read_text().strip())
    return KernelSpec(family="generic_antisymmetrized", base=expr)


def _measure(args):
    """The --measure file's measure; an unreadable file is a usage error."""
    return _load(args.parser, "measure file", args.measure, load_measure)


def _print_check(c: Check) -> None:
    print(f"{'PASS' if c.ok else 'FAIL'}  {c.name}  lhs={c.lhs!r}  "
          f"rhs={c.rhs!r}")


def _verdict(checks, wrote: str) -> int:
    """Print each failed check, then the verdict and what was written;
    returns the exit status, 1 if any check failed."""
    failed = [c for c in checks if not c.ok]
    for c in failed:
        _print_check(c)
    print(f"{'CHECKS FAILED' if failed else 'all checks passed'}; {wrote}")
    return 1 if failed else 0


def _add_kernel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", default="riesz", choices=["riesz", "custom"])
    # the Riesz defaults, i = n = 1, are KernelSpec's
    p.add_argument("--riesz-i", type=int)
    p.add_argument("--riesz-n", type=int)
    p.add_argument("--kernel-file")


def cmd_generate(args) -> int:
    spec = GeneratorSpec(family=args.family, level=args.level,
                         ratio=args.ratio, count=args.count, seed=args.seed)
    cloud, m, r_min = generate(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, args.out)
    save_measure(m, path)
    print(f"wrote {path}: {m.n_atoms} atoms, diameter {cloud.diameter!r}, "
          f"r_min {r_min!r}")
    return 0


def cmd_check_growth(args) -> int:
    m, _ = normalize(_measure(args))
    c_mu, (atom, radius) = growth_constant(m, args.s, args.r_min,
                                           workers=args.threads)
    print(f"c_mu = {c_mu!r} (s = {args.s}, r_min = {args.r_min}), "
          f"witness atom {atom} at radius {radius!r}")
    return 0


def cmd_check_kernel(args) -> int:
    m = _measure(args)
    k = _kernel_from_args(args)
    # both checks in one sweep of the pair tiles, as converge takes them
    anti_pass, size_pass = (antisymmetry_pass(k, m.cloud),
                            size_bound_pass(m.cloud, args.s))
    anti_rows, size_rows = sweep_pair_tiles(k, m.cloud, [anti_pass, size_pass],
                                            workers=args.threads)
    anti = anti_pass.reduce(anti_rows)
    c, pair = size_pass.reduce(size_rows)
    _print_check(anti)
    print(f"worst pair {anti.witness['pair']}")
    print(f"size bound: |k| <= {c!r} * d^-{args.s}, witness pair {pair}")
    return 0 if anti.ok else 1


def cmd_good_radii(args) -> int:
    m, _ = normalize(_measure(args))
    mu_z = radial_pushforward(m, args.center)
    params = GoodSetParams(lam=args.lam, depth=args.depth,
                           budget=args.budget)
    if args.materialize:
        iset = materialize_good_set(mu_z, params)
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, args.materialize)
        interval_set_to_file(iset, path)
        print(f"wrote {path}: {iset.n_intervals} intervals, total length "
              f"{iset.total_length} (bound {params.lower_bound})")
        return 0
    if args.test is not None:
        res = is_good_radius(mu_z, args.test, params)
        if res.ok:
            print(f"t = {args.test} is a good radius "
                  f"(lambda={args.lam}, depth={args.depth})")
            for n, j, mass, clr in res.witnesses:
                print(f"  generation {n}: cell {j}, mass {mass}, "
                      f"clearance {clr}")
            return 0
        print(f"t = {args.test} rejected at generation {res.generation}: "
              f"{res.reason}")
        return 1
    t = select_good_radius_near(mu_z, args.near, params)
    print(f"{t} (= {float(t)!r})")
    return 0


def cmd_pairing(args) -> int:
    m, _ = normalize(_measure(args))
    k = _kernel_from_args(args)
    f, g = (_load(args.parser, flag, path,
                  lambda path: simple_function_from_json(_read_json(path)))
            for flag, path in (("--f file", args.f), ("--g file", args.g)))
    grid = args.eps_grid
    trace = compute_pairing_trace(k, m, f, g, grid, workers=args.threads)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, args.out)
    with open(path, "w") as fh:
        fh.write("\n".join(trace_csv_lines(trace)) + "\n")
    wrote = f"wrote {path} ({len(grid)} epsilon values)"
    return _verdict(trace.checks, wrote)


def cmd_converge(args) -> int:
    gen = GeneratorSpec(family=args.family, level=args.level,
                        ratio=args.ratio, count=args.count, seed=args.seed)
    cfg = SuiteConfig(generator=gen, kernel=_kernel_from_args(args),
                      s=args.s, lam=args.lam, depth=args.depth,
                      n_balls=args.balls, eps_start=args.eps_start,
                      eps_ratio=args.eps_ratio, eps_count=args.eps_count,
                      levels_back=args.levels_back, seed=args.seed,
                      workers=args.threads)
    report = run_convergence_suite(cfg)
    written = emit_report(report, args.out_dir)
    return _verdict(report.checks, f"wrote {', '.join(written)}")


def cmd_report(args) -> int:
    summary = _load(args.parser, "summary file", args.summary)
    # summary.json holds a non-finite float as its repr string
    with json_shape(f"summary file {args.summary}"):
        checks = [Check(**{k: float(x) if x in ("nan", "inf", "-inf") else x
                           for k, x in c.items()})
                  for c in summary.get("checks", [])]
    if not checks:  # every converge summary holds its checks
        args.parser.error(f"summary file {args.summary} holds no checks")
    for c in checks:
        _print_check(c)
    n_ok = sum(1 for c in checks if c.ok)
    print(f"{n_ok}/{len(checks)} checks passed")
    return 0 if n_ok == len(checks) else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sio-lab",
        description="truncated singular integrals on point clouds: "
                    "good radii, pairings, convergence diagnostics")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a test measure")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--family", default="four_corner_cantor")
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--ratio", type=float, default=0.25)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--out", default="measure.json")
    p.set_defaults(func=cmd_generate, parser=p)

    p = sub.add_parser("check-growth", help="certify the growth constant")
    _add_common(p)
    _add_threads(p)
    p.add_argument("--measure", required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--r-min", type=float, required=True)
    p.set_defaults(func=cmd_check_growth, parser=p)

    p = sub.add_parser("check-kernel", help="certify kernel bounds")
    _add_common(p)
    _add_threads(p)
    p.add_argument("--measure", required=True)
    _add_kernel_flags(p)
    p.add_argument("--s", type=float, default=1.0)
    p.set_defaults(func=cmd_check_kernel, parser=p)

    p = sub.add_parser("good-radii", help="good-radius queries for one center")
    _add_common(p)
    p.add_argument("--measure", required=True)
    p.add_argument("--center", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=5)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--out-dir", default=".")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--materialize", metavar="OUT_JSON")
    mode.add_argument("--test", metavar="T", type=_fraction)
    mode.add_argument("--near", metavar="TARGET", type=_fraction)
    p.set_defaults(func=cmd_good_radii, parser=p)

    p = sub.add_parser("pairing", help="pairing trace along an eps grid")
    _add_common(p)
    _add_threads(p)
    p.add_argument("--measure", required=True)
    _add_kernel_flags(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--eps-grid", type=_eps_grid,
                   default="geometric:start=0.5,ratio=0.5,count=20")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--out", default="trace.csv")
    p.set_defaults(func=cmd_pairing, parser=p)

    p = sub.add_parser("converge", help="full convergence suite")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    _add_threads(p)
    p.add_argument("--family", default="four_corner_cantor")
    p.add_argument("--level", type=int, default=4)
    p.add_argument("--ratio", type=float, default=0.25)
    p.add_argument("--count", type=int, default=64)
    _add_kernel_flags(p)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=int, default=5)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--balls", type=int, default=5)
    p.add_argument("--eps-start", type=float, default=0.5)
    p.add_argument("--eps-ratio", type=float, default=0.5)
    p.add_argument("--eps-count", type=int, default=12)
    p.add_argument("--levels-back", type=int, default=2)
    p.set_defaults(func=cmd_converge, parser=p)

    p = sub.add_parser("report", help="print a saved summary's verdicts")
    _add_common(p)
    p.add_argument("--summary", required=True)
    p.set_defaults(func=cmd_report, parser=p)
    return top


def _libc():
    """The C library this process runs on, through its own symbols."""
    import ctypes  # here, not at import: importing sio_lab stays as cheap
    return ctypes.CDLL(None)


def _pin_heap() -> None:
    """Fix glibc's mmap and trim thresholds at 32 MiB and 64 MiB.

    glibc raises both as large chunks are freed, up to these values (its
    64-bit ceiling, and twice it): until then each tile's 0.5-1 MB
    temporaries are trimmed off the heap top and faulted in again by the
    next tile. Pinning them starts every walk in that end state. The CLI
    owns its process, so only `main` calls this; a library caller keeps
    its host's heap. Without glibc's `mallopt` it does nothing.
    """
    import ctypes
    try:
        mallopt = _libc().mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _pin_heap()
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = argparse.ArgumentParser(prog="sio-lab", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    commands = next(a for a in parser._actions if a.dest == "command").choices
    if path and argv[0] in commands:
        # argv[0] is the subcommand: the top-level parser takes no other
        # flag. File values go first, so a typed flag, parsed later, wins.
        argv[1:1] = _config_flags(commands[argv[0]], path)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, BudgetError) as exc:
        # a bad value or a budget overrun is a usage error (exit 2)
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())

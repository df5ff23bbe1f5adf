"""Command-line front end.

Subcommands: gen-stream, gen-hard, run-threshold, run-monitor,
verify-reduction, bench-comm. Every run is reproducible from its output
header: output files carry "#"-prefixed provenance lines with the fully
resolved configuration and seeds.

Options may also come from a key=value config file passed with --config;
explicit flags win over config values, which win over built-in defaults.
Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Optional

import numpy as np

from . import hardgen, harness, oracles, reductions
from .protocol import GlobalParams
from .sampling import SALT_STREAM, derive


def load_config(path: str) -> dict[str, tuple[int, str]]:
    """key=value lines, as key -> (line number, value); blank lines and
    # comments ignored."""
    out: dict[str, tuple[int, str]] = {}
    for i, line in enumerate(harness.read_lines(path, "utf-8"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {i}: expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = (i, val.strip())
    return out


class Options:
    """Tracks option types and defaults so config values can fill in
    anything the command line left unset."""

    def __init__(self, parser: argparse.ArgumentParser) -> None:
        self.parser = parser
        self.info: dict[str, tuple[Callable[[str], object], object, bool,
                                   Optional[tuple]]] = {}
        parser.add_argument("--config", default=None,
                            help="key=value file with defaults for any option")

    def add(self, *flags: str, type: Callable[[str], object] = str,
            default: object = None, required: bool = False,
            choices: Optional[tuple] = None, **kw) -> None:
        action = self.parser.add_argument(*flags, type=type, default=None,
                                          choices=choices, **kw)
        self.info[action.dest] = (type, default, required, choices)

    def resolve(self, args: argparse.Namespace) -> None:
        config = load_config(args.config) if args.config else {}
        for key, (line, _) in config.items():
            if key not in self.info:
                raise ValueError(f"{args.config}: line {line}: {key}: no such option")
        for dest, (conv, default, required, choices) in self.info.items():
            if getattr(args, dest) is None:
                if dest in config:
                    line, text = config[dest]
                    try:
                        value = conv(text)
                    except ValueError as exc:
                        raise ValueError(f"{args.config}: line {line}: {dest}: {exc}") from None
                    if choices is not None and value not in choices:
                        raise ValueError(
                            f"{args.config}: line {line}: {dest}: {text!r} is not "
                            f"one of {', '.join(map(str, choices))}")
                    setattr(args, dest, value)
                else:
                    if required:
                        raise ValueError(f"missing required option --{dest.replace('_', '-')}")
                    setattr(args, dest, default)


def int_list(text: str) -> list[int]:
    """A nonempty comma-separated list of ints, such as "4,8,16"."""
    if not (values := [int(v) for v in text.split(",") if v]):
        raise ValueError(f"no integer in {text!r}")
    return values


def _params_from_args(args: argparse.Namespace, m: int, k: int, n: int,
                      tau: Optional[float]) -> GlobalParams:
    kw = dict(k=k, m=m, n=n, p=args.p, eps=args.eps, tau=tau, seed=args.seed)
    for name in ("b", "c_b", "r", "a", "i_max"):
        val = getattr(args, name, None)
        if val is not None:
            kw[name] = val
    return GlobalParams(**kw)


def _common_run_options(opts: Options, monitor: bool) -> None:
    opts.add("--stream", required=True, help="input stream file")
    opts.add("--out", required=True, help="output trace file")
    opts.add("--p", type=float, required=True, help="moment order (> 1)")
    opts.add("--eps", type=float, required=True, help="accuracy parameter")
    opts.add("--seed", type=int, default=0)
    opts.add("--b", type=float, help="counter resolution")
    opts.add("--c-b", type=float, help="scale for the default b formula")
    opts.add("--r", type=int, help="repetitions (default 5 * ceil(log2 n))")
    opts.add("--stride", type=int, default=1, help="trace row subsampling")
    if monitor:
        opts.add("--a", type=int, help="odd amplification copies per rung")
        opts.add("--i-max", type=int, help="highest ladder rung")
    else:
        opts.add("--tau", type=float, required=True, help="threshold to watch")


def _run_command(args: argparse.Namespace, mode: str) -> int:
    m, k, n, events = harness.read_stream(args.stream)
    tau = args.tau if mode == "threshold" else None
    params = _params_from_args(args, m, k, n, tau)
    rows, _ = harness.simulate(events, params, mode=mode, stride=args.stride)
    prov = harness.params_provenance(params, mode)
    prov["stream"] = args.stream
    prov["stride"] = args.stride
    harness.write_trace(args.out, rows, prov)
    return 0


def cmd_run_threshold(args: argparse.Namespace) -> int:
    return _run_command(args, "threshold")


def cmd_run_monitor(args: argparse.Namespace) -> int:
    return _run_command(args, "monitor")


def cmd_gen_stream(args: argparse.Namespace) -> int:
    m, k, n = args.m, args.k, args.n
    if args.kind == "uniform":
        events = harness.gen_uniform_stream(m, k, n, args.seed)
    elif args.kind == "zipf":
        events = harness.gen_zipf_stream(m, k, n, args.seed, s=args.s)
    else:
        if not args.hard:
            raise ValueError("--kind btx needs --hard INSTANCE_FILE")
        inst = hardgen.read_instance(args.hard)
        if not isinstance(inst, hardgen.BtxInstance):
            raise ValueError(f"{args.hard} does not hold a BTX instance")
        events, m = hardgen.btx_to_stream(inst)
        k, n = inst.k, len(events)
    harness.write_stream(args.out, events, m, k, n)
    return 0


def cmd_gen_hard(args: argparse.Namespace) -> int:
    t = args.type
    if t == "two-disj":
        inst: object = hardgen.gen_two_disj(args.nprime, args.beta, args.seed)
    elif t == "bit-disj":
        inst = hardgen.gen_bit_disj(args.k, args.nprime, args.beta, args.seed)
    elif t == "btx":
        inst = hardgen.gen_btx(args.k, args.p, args.eps, args.seed)
    elif t == "gap-maj":
        inst = hardgen.gen_gap_maj(args.k, args.seed)
    elif t == "quantile":
        inst = hardgen.gen_quantile_instance(args.k, args.eps, args.seed)
    else:
        raise ValueError(f"unknown instance type {t!r}")
    hardgen.write_instance(args.out, inst)
    return 0


def _emit_report(args: argparse.Namespace, header: str,
                 rows: list[str], prov: dict[str, object]) -> None:
    lines = [f"# {k}={prov[k]}" for k in sorted(prov)] + [header] + rows
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify_reduction(args: argparse.Namespace) -> int:
    which = args.which
    trials = args.trials
    prov: dict[str, object] = {"reduction": which, "trials": trials,
                               "seed": args.seed}
    if which == "btx":
        prov.update(k=args.k, p=args.p, eps=args.eps)
        non_star = agree = 0
        for t in range(trials):
            inst = hardgen.gen_btx(args.k, args.p, args.eps,
                                   derive(args.seed, 11, t))
            want = hardgen.btx_eval(inst)
            if want is None:
                continue
            non_star += 1
            got = reductions.btx_from_moments(
                reductions.btx_moments(inst), args.k, args.p, args.eps)
            agree += int(got == want)
        frac = agree / non_star if non_star else 0.0
        _emit_report(args, "reduction,trials,non_star,agree,frac",
                     [f"btx,{trials},{non_star},{agree},{frac:.12g}"], prov)
        return 0 if frac >= 0.95 else 1
    if which == "f0bit":
        if args.nprime < 3:
            raise ValueError(f"--nprime must be >= 3, got {args.nprime}")
        nprime = args.nprime - ((args.nprime - 3) % 4)
        lprime = (nprime + 1) // 4
        prov.update(k=args.k, eps=args.eps, beta=args.beta, nprime=nprime)
        tol = 1.0 / (4.0 * args.eps)
        ok = ok0 = 0
        for t in range(trials):
            inst = hardgen.gen_bit_disj(args.k, nprime, args.beta,
                                        derive(args.seed, 12, t))
            n_true = sum(inst.z)
            w = float(oracles.exact_distinct(inst.xs, nprime))
            lam = (reductions.collision_rate(n_true, lprime)
                   if n_true >= 1 else 0.0)
            est = reductions.bit_from_f0(w, nprime, lprime, lam)
            est0 = reductions.bit_from_f0(w, nprime, lprime, 0.0)
            ok += int(abs(est - n_true) <= tol)
            ok0 += int(abs(est0 - n_true) <= tol)
        frac, frac0 = ok / trials, ok0 / trials
        _emit_report(args, "reduction,trials,within_tol,frac,frac_lambda0",
                     [f"f0bit,{trials},{ok},{frac:.12g},{frac0:.12g}"], prov)
        return 0 if frac >= 0.9 else 1
    if which == "embed":
        if args.dim < 1:
            raise ValueError(f"--dim must be >= 1, got {args.dim}")
        r = (args.r if args.r is not None
             else reductions.embed_readings(args.p, args.eps))
        prov.update(p=args.p, eps=args.eps, r=r, dim=args.dim)
        rng = np.random.Generator(np.random.PCG64(derive(args.seed, 13)))
        x = rng.integers(1, 10, size=args.dim)
        target = float(np.linalg.norm(x)) ** args.p
        tol = (args.eps / 3.0) * target
        ok = 0
        for t in range(trials):
            y = reductions.gaussian_embed(x, r, args.p, derive(args.seed, 14, t))
            ok += int(abs(reductions.embed_norm_estimate(y, args.p) - target) <= tol)
        frac = ok / trials
        _emit_report(args, "reduction,trials,within_tol,frac",
                     [f"embed,{trials},{ok},{frac:.12g}"], prov)
        return 0 if frac >= 0.9 else 1
    # quantile round trip
    prov.update(k=args.k, eps=args.eps)
    decidable = correct = 0
    for t in range(trials):
        inst = hardgen.gen_quantile_instance(args.k, args.eps,
                                             derive(args.seed, 15, t))
        got = hardgen.quantile_recover(inst)
        for i in range(inst.l_rep):
            s = sum(inst.z[i])
            if abs(s - inst.k / 2.0) < math.sqrt(inst.k):
                continue
            decidable += 1
            correct += int(got[i] == (1 if s > inst.k / 2.0 else 0))
    frac = correct / decidable if decidable else 0.0
    _emit_report(args, "reduction,trials,decidable,correct,frac",
                 [f"quantile,{trials},{decidable},{correct},{frac:.12g}"], prov)
    return 0 if decidable and frac >= 1.0 else 1


def cmd_bench_comm(args: argparse.Namespace) -> int:
    prov: dict[str, object] = {"m": args.m, "n": args.n, "p": args.p,
                               "eps": args.eps, "trials": args.trials,
                               "seed": args.seed}
    rows = []
    for k in args.k_list:
        tot_msgs = tot_bits = 0
        for trial in range(args.trials):
            rng_items = np.random.Generator(
                np.random.PCG64(derive(args.seed, SALT_STREAM, 31, trial)))
            rng_sites = np.random.Generator(
                np.random.PCG64(derive(args.seed, SALT_STREAM, 32, trial, k)))
            events = harness.events_of(np.arange(args.n), rng_sites.integers(0, k, size=args.n),
                                       rng_items.integers(0, args.m, size=args.n))
            tau = max(1.0, float(harness.exact_fp_of_events(events, args.p)) / 2.0)
            params = _params_from_args(args, args.m, k, args.n, tau)
            trace, _ = harness.simulate(events, params, mode="threshold",
                                        stride=len(events))
            tot_msgs += trace[-1].cum_messages
            tot_bits += trace[-1].cum_bits
        rows.append(f"{k},{args.trials},{tot_msgs / args.trials:.12g},"
                    f"{tot_bits / args.trials:.12g}")
    _emit_report(args, "k,trials,mean_messages,mean_bits", rows, prov)
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, Options]]:
    parser = argparse.ArgumentParser(
        prog="fpmon",
        description="Continuous distributed monitoring of frequency moments.")
    sub = parser.add_subparsers(dest="command")
    registry: dict[str, Options] = {}

    sp = sub.add_parser("gen-stream", help="write a synthetic stream file")
    opts = Options(sp)
    opts.add("--kind", required=True, choices=("uniform", "zipf", "btx"))
    opts.add("--m", type=int, default=1024)
    opts.add("--k", type=int, default=8)
    opts.add("--n", type=int, default=10000)
    opts.add("--s", type=float, default=1.1, help="zipf exponent")
    opts.add("--seed", type=int, default=0)
    opts.add("--hard", help="instance file for --kind btx")
    opts.add("--out", required=True)
    sp.set_defaults(func=cmd_gen_stream)
    registry["gen-stream"] = opts

    sp = sub.add_parser("gen-hard", help="write a structured hard instance")
    opts = Options(sp)
    opts.add("--type", required=True,
             choices=("two-disj", "bit-disj", "btx", "gap-maj", "quantile"))
    opts.add("--k", type=int, default=8)
    opts.add("--nprime", type=int, default=19)
    opts.add("--beta", type=float, default=0.25)
    opts.add("--p", type=float, default=2.0)
    opts.add("--eps", type=float, default=0.25)
    opts.add("--seed", type=int, default=0)
    opts.add("--out", required=True)
    sp.set_defaults(func=cmd_gen_hard)
    registry["gen-hard"] = opts

    sp = sub.add_parser("run-threshold",
                        help="run one threshold instance over a stream")
    opts = Options(sp)
    _common_run_options(opts, monitor=False)
    sp.set_defaults(func=cmd_run_threshold)
    registry["run-threshold"] = opts

    sp = sub.add_parser("run-monitor",
                        help="run the full monitoring ladder over a stream")
    opts = Options(sp)
    _common_run_options(opts, monitor=True)
    sp.set_defaults(func=cmd_run_monitor)
    registry["run-monitor"] = opts

    sp = sub.add_parser("verify-reduction",
                        help="statistical check of an estimator reduction")
    sp.add_argument("which", choices=("btx", "f0bit", "embed", "quantile"))
    opts = Options(sp)
    opts.add("--trials", type=int, default=200)
    opts.add("--k", type=int, default=8)
    opts.add("--p", type=float, default=2.0)
    opts.add("--eps", type=float, default=0.25)
    opts.add("--beta", type=float, default=0.25)
    opts.add("--nprime", type=int, default=40003)
    opts.add("--r", type=int,
             help="readings per embed trial (default: embed_readings(p, eps))")
    opts.add("--dim", type=int, default=32)
    opts.add("--seed", type=int, default=0)
    opts.add("--out", help="write the report here instead of stdout")
    sp.set_defaults(func=cmd_verify_reduction)
    registry["verify-reduction"] = opts

    sp = sub.add_parser("bench-comm",
                        help="communication cost versus site count")
    opts = Options(sp)
    opts.add("--k-list", type=int_list, default=(4, 8, 16, 32))
    opts.add("--m", type=int, default=4096)
    opts.add("--n", type=int, default=10000)
    opts.add("--p", type=float, default=2.0)
    opts.add("--eps", type=float, default=0.25)
    opts.add("--trials", type=int, default=3)
    opts.add("--seed", type=int, default=0)
    opts.add("--b", type=float)
    opts.add("--c-b", type=float)
    opts.add("--r", type=int)
    opts.add("--out", help="write the report here instead of stdout")
    sp.set_defaults(func=cmd_bench_comm)
    registry["bench-comm"] = opts

    return parser, registry


def main(argv: Optional[list[str]] = None) -> int:
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        registry[args.command].resolve(args)
        if getattr(args, "trials", 1) < 1:  # verify-reduction and bench-comm
            raise ValueError(f"--trials must be >= 1, got {args.trials}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

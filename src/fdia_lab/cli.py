"""Command-line front end.

Subcommands:
  simulate          run a scenario and write its artifact set
  verify            run attacked and nominal loops, check undetectability
  monitor           residual detector over a scenario run
  estimate          signature regression study (trajectory vs grid sampling)
  vulncheck         scalar signature family classification table
  serve-plant       lock-step plant server (one TCP session)
  serve-controller  lock-step controller client
  proxy             man-in-the-middle applying an affine attack on the wire

The networked trio reproduces the in-process simulation exactly: start
serve-plant, then proxy, then serve-controller, each in its own terminal.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import adversary, netlink, vulncheck
from .fdia import AttackError, load_attack
from .scenarios import (
    ScenarioError,
    builtin_names,
    evaluate,
    load_scenario,
    resolve_out_dir,
    run_scenario,
    write_monitor_csv,
)
from .simloop import _UNDETECTABLE_TOL, RunDiverged, run, write_csv, write_trace_csv
from .smsf import monitor


def _hostport(text: str, default_host: str = "127.0.0.1") -> tuple:
    """Parse "host:port", ":port", or bare "port"."""
    if ":" in text:
        host, _, port = text.rpartition(":")
        host = host or default_host
    else:
        host, port = default_host, text
    try:
        number = int(port)
    except ValueError:
        number = -1
    if not 0 <= number <= 65535:
        raise argparse.ArgumentTypeError(f"invalid port in {text!r}")
    return (host, number)


def _int_list(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(f"expected sample counts >= 1, got {text!r}")
    return values


def _float_type(accept, want: str):
    """An argparse type: a finite float for which accept(value) holds."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and accept(value)):
            raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")
        return value
    return parse


_finite = _float_type(lambda v: True, "a finite number")
_positive = _float_type(lambda v: v > 0.0, "a finite number > 0")
_non_negative = _float_type(lambda v: v >= 0.0, "a finite number >= 0")


def _non_negative_int(text: str) -> int:
    """An argparse type: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


@functools.cache  # built once per process: parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdia-lab",
        description="Undetectable affine false-data-injection attacks on a "
                    "trajectory-tracking unicycle, at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = ", ".join(builtin_names())

    p = sub.add_parser("simulate", help="run a scenario and write artifacts")
    p.add_argument("--scenario", default="scenario1",
                   help=f"builtin name ({names}) or scenario JSON path")
    p.add_argument("--out-dir", default=None, help="artifact directory "
                   "(default: $FDIA_LAB_OUT_DIR/<name> or ./runs/<name>)")

    p = sub.add_parser("verify", help="check attacked run is undetectable vs nominal")
    p.add_argument("--scenario", default="scenario1")
    p.add_argument("--tol", type=_non_negative, default=_UNDETECTABLE_TOL)

    p = sub.add_parser("monitor", help="run the scenario's residual detector over its run")
    p.add_argument("--scenario", default="scenario1")
    p.add_argument("--out", default=None, help="write t,residual,exceeds CSV here")

    p = sub.add_parser("estimate", help="signature regression study")
    p.add_argument("--scenario", default="scenario1",
                   help="scenario whose attacked trace the eavesdropper samples")
    p.add_argument("--source", choices=("both", "trajectory", "spiral"), default="both")
    p.add_argument("--n", type=_int_list, default=adversary._STUDY_NS,
                   help="comma-separated sample counts")
    p.add_argument("--noise-std", type=_non_negative, default=adversary.STUDY_NOISE_STD,
                   help="position measurement noise (standard deviation, meters)")
    p.add_argument("--seed", type=_non_negative_int, default=adversary._STUDY_SEED)
    p.add_argument("--out", default=None, help="write source,n,nrmse CSV here")

    p = sub.add_parser("vulncheck", help="classify scalar signature families")
    p.add_argument("--tol", type=_positive, default=vulncheck._TOL)
    p.add_argument("--out", default=None, help="write the verdict table CSV here")

    p = sub.add_parser("serve-plant", help="serve one lock-step plant session")
    p.add_argument("--scenario", default="nominal")
    p.add_argument("--listen", type=_hostport,
                   default=("127.0.0.1", netlink.DEFAULT_PLANT_PORT),
                   help="host:port to listen on")
    p.add_argument("--out", default=None, help="write the plant-side view CSV here")

    p = sub.add_parser("serve-controller", help="drive one lock-step controller session")
    p.add_argument("--scenario", default="nominal")
    p.add_argument("--connect", type=_hostport,
                   default=("127.0.0.1", netlink.DEFAULT_PROXY_PORT),
                   help="host:port of the plant or proxy")
    p.add_argument("--out", default=None, help="write the controller-side view CSV here")

    p = sub.add_parser("proxy", help="affine man-in-the-middle for one session")
    p.add_argument("--listen", type=_hostport,
                   default=("127.0.0.1", netlink.DEFAULT_PROXY_PORT))
    p.add_argument("--connect", type=_hostport,
                   default=("127.0.0.1", netlink.DEFAULT_PLANT_PORT))
    group = p.add_mutually_exclusive_group()
    group.add_argument("--attack", default=None, help="attack JSON file")
    group.add_argument("--scenario", default=None,
                       help="use this scenario's attack (identity if it has none)")
    p.add_argument("--sig-scale", type=_finite, default=1.0,
                   help="scalar channel applied to signature frames")
    p.add_argument("--sig-offset", type=_finite, default=0.0)

    return parser


def _cmd_simulate(args) -> int:
    out = resolve_out_dir(load_scenario(args.scenario).name, args.out_dir)
    summary = run_scenario(args.scenario, args.out_dir)
    det = summary["detection"]
    print(f"scenario {summary['name']} (seed {summary['seed']}) -> {out}")
    print(f"  sup observed deviation  {summary['sup_obs_dev']:.3e}")
    print(f"  sup actual deviation    {summary['sup_actual_dev']:.3e}")
    print(f"  undetectable            {summary['undetectable']}")
    print(f"  detector flag           {det['flag']}"
          + (f" (first exceed t={det['first_exceed_t']:.2f} s,"
             f" detect t={det['detect_t']:.2f} s)" if det["flag"] else ""))
    print(f"  peak residual           {det['peak_residual']:.3e}")
    print(f"  lyapunov final          {summary['lyapunov_final']:.3e}")
    return 0


def _cmd_verify(args) -> int:
    report = evaluate(load_scenario(args.scenario), tol=args.tol).report
    print(f"sup |observed(attacked) - actual(nominal)| = {report.sup_obs_dev:.3e}")
    print(f"sup |actual(attacked) - mapped(nominal)|   = {report.sup_actual_dev:.3e}")
    verdict = "PASS" if report.undetectable else "FAIL"
    print(f"{verdict} (tol {args.tol:g})")
    return 0 if report.undetectable else 1


def _cmd_monitor(args) -> int:
    sc = load_scenario(args.scenario)
    trace = run(sc.sim, sc.attack, sc.signature)
    result = monitor(trace, sc.signature, cfg=sc.detection)
    print(f"scenario {sc.name}: peak residual {result.residual.max():.3e}"
          f" (epsilon {sc.detection.epsilon:g}, window {sc.detection.window})")
    if result.flag:
        print(f"DETECTED: first exceed t={result.first_exceed_t:.2f} s,"
              f" flag t={result.detect_t:.2f} s")
    else:
        print("NOT DETECTED over the run")
    if args.out:
        write_monitor_csv(args.out, result)
        print(f"wrote {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    sc = load_scenario(args.scenario)
    trace = run(sc.sim, sc.attack, sc.signature)
    # the study fits the trajectory source at every n, whichever source is shown
    most = max(args.n)
    if most > len(trace):
        raise ScenarioError(f"scenario {sc.name} logs {len(trace)} samples, fewer than --n {most}")
    try:
        rows = adversary.estimation_study(trace, truth=sc.signature, ns=args.n,
                                          noise_std=args.noise_std, seed=args.seed)
    except adversary.UnderdeterminedFit:
        raise
    except ValueError as exc:  # nrmse: the signature is flat on the hold-out grid
        raise ScenarioError(f"scenario {sc.name}: the study cannot score its signature:"
                            f" {exc}") from exc
    if args.source != "both":
        rows = [r for r in rows if r.source == args.source]
    print(f"scenario {sc.name}, noise std {args.noise_std:g}, seed {args.seed}")
    print(f"{'source':<12}{'n':>6}  nrmse")
    for row in rows:
        print(f"{row.source:<12}{row.n:>6}  {row.nrmse:.4f}")
    if args.out:
        write_csv(args.out, ("source", "n", "nrmse"), [(r.source, r.n, r.nrmse) for r in rows])
        print(f"wrote {args.out}")
    return 0


def _cmd_vulncheck(args) -> int:
    verdicts = vulncheck.verdict_table(tol=args.tol)
    print(f"{'family':<14}{'classification':<22}{'constraint':<28}candidates")
    for v in verdicts:
        constraint = v.constraint if v.constraint else "-"
        if v.kind == vulncheck.CLASS_DISCRETE:
            shown = ", ".join(f"(alpha={a:g}, beta={b:g})" for a, b in v.candidates[:4])
        elif v.kind == vulncheck.CLASS_CONTINUOUS:
            shown = f"{len(v.candidates)} grid points"
        else:
            shown = f"none (best residual {v.residual:.2e})"
        print(f"{v.family:<14}{v.kind:<22}{constraint:<28}{shown}")
    if args.out:
        write_csv(args.out, ("family", "classification", "constraint", "n_candidates",
                             "best_residual"),
                  [(v.family, v.kind, v.constraint or "", len(v.candidates), v.residual)
                   for v in verdicts])
        print(f"wrote {args.out}")
    return 0


def _cmd_serve_plant(args) -> int:
    sc = load_scenario(args.scenario)
    host, port = args.listen

    def listening(bound: int) -> None:  # the bound port: --listen may ask for port 0
        print(f"plant: scenario {sc.name}, listening on {host}:{bound}", flush=True)

    log = netlink.serve_plant(sc.sim, sc.signature, host=host, port=port, on_bound=listening)
    return _session_done("plant", log, args.out)


def _cmd_serve_controller(args) -> int:
    sc = load_scenario(args.scenario)
    print(f"controller: scenario {sc.name}, connecting to {args.connect[0]}:{args.connect[1]}",
          flush=True)
    log = netlink.run_controller(sc.sim, connect=args.connect, signature=sc.signature)
    return _session_done("controller", log, args.out)


def _session_done(role: str, log, out) -> int:
    """Report a networked session's end, write its view CSV if asked; 0 when complete."""
    state = "complete" if log.complete else "incomplete"
    print(f"{role} session {state}: {len(log)} logged rows")
    if out:
        write_trace_csv(out, log)
        print(f"wrote {out}")
    return 0 if log.complete else 1


def _cmd_proxy(args) -> int:
    attack = None
    if args.attack is not None:
        attack = load_attack(args.attack)
    elif args.scenario is not None:
        attack = load_scenario(args.scenario).attack
    label = attack.kind if attack is not None else "passthrough"

    def listening(bound: int) -> None:  # the bound port: --listen may ask for port 0
        print(f"proxy: {label}, {args.listen[0]}:{bound}"
              f" -> {args.connect[0]}:{args.connect[1]}", flush=True)

    netlink.serve_proxy(attack, listen=args.listen, upstream=args.connect,
                        sig_scale=args.sig_scale, sig_offset=args.sig_offset,
                        on_bound=listening)
    print("proxy session ended")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "monitor": _cmd_monitor,
    "estimate": _cmd_estimate,
    "vulncheck": _cmd_vulncheck,
    "serve-plant": _cmd_serve_plant,
    "serve-controller": _cmd_serve_controller,
    "proxy": _cmd_proxy,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # OSError covers a missing file, and for the networked commands a refused
    # connection, a port in use or a timeout
    except (ScenarioError, AttackError, RunDiverged, adversary.UnderdeterminedFit,
            netlink.NetlinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

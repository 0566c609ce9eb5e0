"""Command-line pipeline: build, disparity, backbone, dollar, export.

Each stage reads and writes plain files so runs can be scripted and
diffed. All outputs are written atomically (temp file + rename) and all
randomness flows from an explicit --seed, so a repeated invocation is
byte-identical. Usage errors exit 2; data errors and unreadable paths exit 1
with a one-line message.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile

import numpy as np

from . import network as nw
from ._io import opened, write_text
from .errors import ConfigurationError, InsufficientDataError, NoConvergenceError

DEFAULT_ALPHAS = (0.2, 0.1, 0.05, 0.01)


def _atomic_write(path: str, writer) -> None:
    """Run ``writer(temp_path)`` on a temp file, then rename it over ``path``."""
    _atomic_writes([path], lambda tmps: writer(*tmps))


def _atomic_writes(paths: list[str], writer) -> None:
    """Run ``writer(temp_paths)`` on one temp file per path, then rename each
    over its path.

    Each temp file is created private; before the rename it gets the mode a
    plain ``open`` would have given it, ``0o666`` less the umask.
    """
    tmps = []
    try:
        for path in paths:
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path) or ".", prefix=".tmp.", suffix="~"
            )
            os.close(fd)
            tmps.append(tmp)
        writer(tmps)
        umask = os.umask(0)
        os.umask(umask)
        for tmp, path in zip(tmps, paths):
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _err(message: str) -> None:
    print(f"tradeflux: {message}", file=sys.stderr)


def _safe_token(code: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", code)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def _cmd_build(args) -> int:
    from . import ingest

    columns = None
    if args.format_map:
        raw = args.format_map
        if not raw.lstrip().startswith("{"):
            with opened(raw) as fh:
                raw = fh.read()
        try:
            columns = ingest.ColumnMap.from_dict(json.loads(raw))
        except (json.JSONDecodeError, ConfigurationError) as exc:
            _err(f"bad --format-map: {exc}")
            return 2

    parsed = ingest.parse_dyadic_records(args.input, columns=columns)

    for where, reason in parsed.dropped:
        _err(f"dropped {where}: {reason}")
    rows = parsed.table.year == args.year
    table = parsed.table if rows.all() else parsed.table.select(rows)
    del parsed, rows  # from here on only the matrix, then the network, is held
    if not len(table):
        _err(f"no records for year {args.year}")
        return 1

    matrix, report = ingest.reconcile_flows(table, args.year, policy=args.policy)
    del table
    check = ingest.validate_trade_matrix(matrix)
    if not check.ok:
        _err(check.summary())
        for violation in check.violations:
            _err(f"violation: {violation}")
        return 1
    _err(report.summary())

    net = nw.build_imbalance_network(matrix)
    del matrix
    accounts = nw.node_accounts(net)
    out = _outdir(args)

    _atomic_write(
        os.path.join(out, "network.tsv"), lambda tmp: nw.write_edge_list(net, tmp)
    )
    _atomic_write(
        os.path.join(out, "accounts.csv"), lambda tmp: nw.write_accounts_csv(accounts, tmp)
    )
    _err(
        f"built network: {net.n_nodes} countries, {net.n_edges} edges, "
        f"total flux {nw.total_flux(net)!r}"
    )
    return 0


# ---------------------------------------------------------------------------
# disparity
# ---------------------------------------------------------------------------


def _cmd_disparity(args) -> int:
    from . import disparity as disp

    directions = ("in", "out") if args.direction == "both" else (args.direction,)
    net = nw.read_edge_list(args.network)
    profiles = {d: disp.disparity_profile(net, d) for d in directions}

    # fit every direction before writing anything, so a failed fit leaves no output
    fits = []
    for direction, profile in profiles.items():
        try:
            fit = disp.fit_scaling_exponent(profile, k_min=args.k_min)
        except InsufficientDataError as exc:
            _err(f"{direction}: {exc}")
            return 1
        fits.append(fit)
        _err(f"{direction}: beta = {fit.beta:.4f} (r^2 = {fit.r_squared:.4f})")

    out = _outdir(args)
    _atomic_write(
        os.path.join(out, "disparity_profile.csv"),
        lambda tmp: disp.write_profile_csv(profiles.values(), tmp),
    )
    _atomic_write(
        os.path.join(out, "scaling_fit.json"), lambda tmp: disp.write_fit_json(fits, tmp)
    )
    return 0


# ---------------------------------------------------------------------------
# backbone
# ---------------------------------------------------------------------------


def _parse_alphas(text: str) -> list[float]:
    try:
        alphas = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"alphas must be numeric, got {text!r}") from None
    if not alphas:
        raise ValueError("at least one alpha is required")
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {a}")
    if len(alphas) > 1 and any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly decreasing")
    return alphas


def _cmd_backbone(args) -> int:
    from . import backbone as bb

    try:
        alphas = _parse_alphas(args.alphas)
    except ValueError as exc:
        _err(str(exc))
        return 2
    net = nw.read_edge_list(args.network)
    if net.n_edges == 0:
        _err("network has no edges")
        return 1
    out = _outdir(args)
    results = bb.backbone_sweep(net, alphas)
    backbones = [backbone for backbone, _ in results]
    # repr, as in backbone_stats.csv: distinct thresholds get distinct files
    paths = [os.path.join(out, f"backbone_a{b.threshold!r}.{args.format}") for b in backbones]
    if args.format == "graphml":
        for backbone, path in zip(backbones, paths):
            _atomic_write(path, lambda tmp, b=backbone: bb.write_backbone_graphml(b, tmp))
    else:
        _atomic_writes(paths, lambda tmps: bb.write_backbone_tsvs(backbones, tmps))
    for backbone, stats in results:
        _err(
            f"alpha {backbone.threshold!r}: kept {stats.pct_edges:.1f}% edges, "
            f"{stats.pct_nodes:.1f}% nodes, {stats.pct_flux:.1f}% flux"
        )
    _atomic_write(
        os.path.join(out, "backbone_stats.csv"),
        lambda tmp: bb.write_stats_csv([s for _, s in results], tmp),
    )
    return 0


# ---------------------------------------------------------------------------
# dollar
# ---------------------------------------------------------------------------


def _cmd_dollar(args) -> int:
    from . import diffusion as dif

    for flag, value, least in (
        ("--top", args.top, 1), ("--walkers", args.walkers, 1),
        ("--max-steps", args.max_steps, 1), ("--seed", args.seed, 0),
    ):
        if value < least:
            _err(f"{flag} must be >= {least}, got {value}")
            return 2
    if args.walkers > dif.MAX_WALKERS:
        _err(f"--walkers must be <= {dif.MAX_WALKERS}, got {args.walkers}")
        return 2
    net = nw.read_edge_list(args.network)
    focal = args.focal
    if focal not in net.index:
        _err(f"unknown country {focal!r}")
        return 2
    delta_s = float(net.delta_s[net.index[focal]])
    forward = args.direction == "forward"
    if (delta_s >= 0) if forward else (delta_s <= 0):
        kind = "neutral" if delta_s == 0 else "producer" if forward else "consumer"
        starts, other = ("consumers", "backward") if forward else ("producers", "forward")
        _err(
            f"{focal} is a net {kind} (delta_s = {delta_s!r}); "
            f"{args.direction} walks start at net {starts}. Try --direction {other}."
        )
        return 2

    diagnostics = {"focal": focal, "direction": args.direction}
    try:
        if args.exact:
            matrix, probe, reconstruction = dif._focal_solve(net, focal, args.direction)
            diagnostics["method"] = matrix.method
            diagnostics["detailed_balance_probe_abs"] = probe
            diagnostics["detailed_balance_rel_flux"] = probe / nw.total_flux(net)
            for label, err in reconstruction.items():
                diagnostics[f"reconstruction_rel_err_{label}"] = err
            diagnostics["mean_hops"] = matrix.mean_hops
        else:
            config = dif.WalkConfig(
                n_walkers=args.walkers, seed=args.seed, max_steps=args.max_steps
            )
            if args.direction == "forward":
                matrix = dif.forward_walk_mc(net, focal, config)
            else:
                matrix = dif.backward_walk_mc(net, focal, config)
            diagnostics["method"] = "monte-carlo"
            diagnostics["n_walkers"] = config.n_walkers
            diagnostics["seed"] = config.seed
            diagnostics["non_absorbed"] = float(matrix.non_absorbed[0])
            diagnostics["mean_hops"] = matrix.mean_hops
            p = matrix.shares[0]
            se = np.sqrt(p * (1 - p) / config.n_walkers)
            diagnostics["max_share_se"] = float(se.max())
    except (ValueError, NoConvergenceError) as exc:
        _err(str(exc))
        return 1
    for warning in matrix.warnings:
        _err(f"warning: {warning}")
    diagnostics["warnings"] = list(matrix.warnings)

    ranking = dif.rank_partners(net, matrix, focal, top=args.top)
    out = _outdir(args)
    name = f"ranking_{_safe_token(focal)}_{args.direction}.csv"
    _atomic_write(
        os.path.join(out, name), lambda tmp: dif.write_ranking_csv(ranking, tmp)
    )

    text = json.dumps(diagnostics, indent=2) + "\n"
    _atomic_write(os.path.join(out, "dollar_diagnostics.json"), lambda tmp: write_text(tmp, text))
    for r in ranking:
        mark = "direct" if r.direct else "indirect"
        _err(
            f"{r.rank:>3}. {r.partner}  {r.global_share_pct:6.2f}% "
            f"(local {r.local_share_pct:.2f}%, {mark})"
        )
    return 0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _cmd_export(args) -> int:
    net = nw.read_edge_list(args.network)
    out = _outdir(args)
    if args.format == "graphml":
        path = os.path.join(out, "network.graphml")
        _atomic_write(path, lambda tmp: nw.write_graphml(net, tmp))
    else:
        path = os.path.join(out, "network.tsv")
        _atomic_write(path, lambda tmp: nw.write_edge_list(net, tmp))
    _err(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Policies:
    """``ingest.RECONCILE_POLICIES``, loaded only when ``build`` checks or lists
    them, so that no other step loads ``ingest``."""

    def __iter__(self):
        from .ingest import RECONCILE_POLICIES

        return iter(RECONCILE_POLICIES)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tradeflux",
        description="Trade-imbalance networks: build, filter, and trace money flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="reconcile bilateral records into a network")
    p.add_argument("input", help="delimited dyadic records (CSV or TSV)")
    p.add_argument("--year", type=int, required=True, help="calendar year to extract")
    p.add_argument(
        "--policy",
        choices=_Policies(),
        default="average",
        metavar="POLICY",
        help="mirror-flow reconciliation policy: %(choices)s (default %(default)s)",
    )
    p.add_argument(
        "--format-map",
        default=None,
        metavar="JSON",
        help="column-name mapping, inline JSON or a path to a JSON file",
    )
    p.add_argument("-o", "--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("disparity", help="concentration profile and scaling fit")
    p.add_argument("network", help="edge-list TSV from the build step")
    p.add_argument("--direction", choices=("in", "out", "both"), default="both")
    p.add_argument("--k-min", type=int, default=2, help="smallest degree used in the fit")
    p.add_argument("-o", "--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_disparity)

    p = sub.add_parser("backbone", help="extract significant-edge backbones")
    p.add_argument("network", help="edge-list TSV from the build step")
    p.add_argument(
        "--alpha",
        dest="alphas",
        default=",".join(str(a) for a in DEFAULT_ALPHAS),
        metavar="A1,A2,...",
        help="strictly decreasing significance levels in (0, 1)",
    )
    p.add_argument("--format", choices=("tsv", "graphml"), default="tsv")
    p.add_argument("-o", "--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_backbone)

    p = sub.add_parser("dollar", help="trace where a country's imbalance flows")
    p.add_argument("network", help="edge-list TSV from the build step")
    p.add_argument("--from", dest="focal", required=True, metavar="COUNTRY")
    p.add_argument("--direction", choices=("forward", "backward"), default="forward")
    p.add_argument("--walkers", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.add_argument(
        "--exact",
        action="store_true",
        help="solve the absorbing system instead of simulating",
    )
    p.add_argument("--top", type=int, default=10, help="ranking length")
    p.add_argument("-o", "--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_dollar)

    p = sub.add_parser("export", help="convert a network file to another format")
    p.add_argument("network", help="edge-list TSV")
    p.add_argument("--format", choices=("graphml", "tsv"), default="graphml")
    p.add_argument("-o", "--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        reason = "no such file" if isinstance(exc, FileNotFoundError) else exc.strerror
        _err(f"{exc.filename}: {reason}" if exc.filename and reason else str(exc))
        return 1
    except ValueError as exc:
        _err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())

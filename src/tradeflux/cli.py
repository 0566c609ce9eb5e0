"""Command-line pipeline: build, disparity, backbone, dollar, export.

Each stage reads and writes plain files so runs can be scripted and
diffed. A step replaces all of its outputs or none (``_write_outputs``),
and all randomness flows from an explicit --seed, so a repeated invocation
is byte-identical. Usage errors exit 2; data errors and unreadable paths
exit 1 with a one-line message.
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


def _write_outputs(out: str, names: list[str], writer) -> None:
    """Make ``out`` and run ``writer(*temp_paths)`` once, on one private temp
    file in it per name; only then give each the mode a plain ``open`` gives,
    ``0o666`` less the umask, and rename it over ``out/<name>``. If the
    writer raises, every temp file is removed and no output is touched. The
    renames run one after another, so only a failure inside the writer is
    sure to leave every old file in place."""
    os.makedirs(out, exist_ok=True)
    tmps = []
    try:
        for _ in names:
            fd, tmp = tempfile.mkstemp(dir=out, prefix=".tmp.", suffix="~")
            os.close(fd)
            tmps.append(tmp)
        writer(*tmps)
        umask = os.umask(0)
        os.umask(umask)
        for tmp, name in zip(tmps, names):
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, os.path.join(out, name))
    except BaseException:
        for tmp in tmps:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


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
        except (json.JSONDecodeError, RecursionError, ConfigurationError) as exc:
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
    _err(report.summary())

    net = nw.build_imbalance_network(matrix)
    del matrix
    accounts = nw.node_accounts(net)

    def write(edges, table):
        nw.write_edge_list(net, edges)
        nw.write_accounts_csv(accounts, table)

    _write_outputs(args.out, ["network.tsv", "accounts.csv"], write)
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

    def write(profile_csv, fit_json):
        disp.write_profile_csv(profiles.values(), profile_csv)
        disp.write_fit_json(fits, fit_json)

    _write_outputs(args.out, ["disparity_profile.csv", "scaling_fit.json"], write)
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
    results = bb.backbone_sweep(net, alphas)
    backbones = [backbone for backbone, _ in results]
    # repr, as in backbone_stats.csv: distinct thresholds get distinct files
    names = [f"backbone_a{b.threshold!r}.{args.format}" for b in backbones]

    def write(stats_csv, *files):
        if args.format == "graphml":
            for backbone, tmp in zip(backbones, files):
                bb.write_backbone_graphml(backbone, tmp)
        else:
            bb.write_backbone_tsvs(backbones, files)
        bb.write_stats_csv([s for _, s in results], stats_csv)

    _write_outputs(args.out, ["backbone_stats.csv", *names], write)
    for backbone, stats in results:
        _err(
            f"alpha {backbone.threshold!r}: kept {stats.pct_edges:.1f}% edges, "
            f"{stats.pct_nodes:.1f}% nodes, {stats.pct_flux:.1f}% flux"
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
    try:
        dif._start(net, focal, args.direction)
    except KeyError as exc:
        _err(exc.args[0])
        return 2
    except ValueError as exc:
        other = "backward" if args.direction == "forward" else "forward"
        hint = f" Try --direction {other}."
        try:
            dif._start(net, focal, other)
        except ValueError:  # a neutral node starts no walk
            hint = ""
        _err(f"{exc}.{hint}")
        return 2

    diagnostics = {"focal": focal, "direction": args.direction}
    if args.exact:
        matrix, probe, reconstruction = dif._focal_solve(net, focal, args.direction)
        diagnostics["method"] = matrix.method
        diagnostics["detailed_balance_probe_abs"] = probe
        diagnostics["detailed_balance_rel_flux"] = probe / nw.total_flux(net)
        for label, err in reconstruction.items():
            diagnostics[f"reconstruction_rel_err_{label}"] = err
        diagnostics["non_absorbed"] = float(matrix.non_absorbed[0])
        diagnostics["mean_hops"] = matrix.mean_hops
    else:
        config = dif.WalkConfig(
            n_walkers=args.walkers, seed=args.seed, max_steps=args.max_steps
        )
        matrix = dif._mc_matrix(net, focal, args.direction, config)
        diagnostics["method"] = "monte-carlo"
        diagnostics["n_walkers"] = config.n_walkers
        diagnostics["seed"] = config.seed
        diagnostics["non_absorbed"] = float(matrix.non_absorbed[0])
        diagnostics["mean_hops"] = matrix.mean_hops
        p = matrix.shares[0]
        se = np.sqrt(p * (1 - p) / config.n_walkers)
        diagnostics["max_share_se"] = float(se.max())
        diagnostics["mean_hops_se"] = matrix.mean_hops_se
    for warning in matrix.warnings:
        _err(f"warning: {warning}")
    diagnostics["warnings"] = list(matrix.warnings)

    ranking = dif.rank_partners(net, matrix, focal, top=args.top)
    text = json.dumps(diagnostics, indent=2) + "\n"

    def write(ranking_csv, diagnostics_json):
        dif.write_ranking_csv(ranking, ranking_csv)
        write_text(diagnostics_json, text)

    name = f"ranking_{_safe_token(focal)}_{args.direction}.csv"
    _write_outputs(args.out, [name, "dollar_diagnostics.json"], write)
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
    name = f"network.{args.format}"
    write = nw.write_graphml if args.format == "graphml" else nw.write_edge_list
    _write_outputs(args.out, [name], lambda tmp: write(net, tmp))
    _err(f"wrote {os.path.join(args.out, name)}")
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
    except (ValueError, NoConvergenceError) as exc:
        _err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: ingest delimited data, compute depths, run experiments.

Output files are plain text: one JSON record per distribution for depth
reports, tab-separated tables plus a JSON summary for experiments.  For a
fixed input, flags, and seed the bytes written are identical regardless of
the worker thread count.

Exit codes: 0 success, 1 usage or configuration error, 2 ingestion error,
3 computation error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .depth import DepthReport, compute_depths
from .errors import (
    EmptyGroup,
    InvalidParameter,
    NonFiniteValue,
    ParseError,
    WsdError,
)
from .ot_core import Cloud
from .sim import (
    EXPERIMENTS,
    ExperimentConfig,
    run_consistency,
    run_kernel_comparison,
    run_location_equivalence,
    run_outlier_experiment,
    sample_experiment,
)

_METHOD_FLAGS = {
    "wsd": "wsd",
    "wsd-discrete": "wsd_discrete",
    "lens": "lens",
    "metric-spatial": "metric_spatial",
    "kernel-spatial": "kernel_spatial",
}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INGEST = 2
EXIT_COMPUTE = 3


def _fmt(value: float) -> str:
    """12 significant digits: below accumulation noise, above test tolerances."""
    return format(float(value), ".12g")


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IngestManifest:
    """How to read a delimited file into clouds.

    ``group_col`` and ``coord_cols`` are column names when the file has a
    header, otherwise zero-based indices below the first row's width.
    ``coord_cols=None`` takes every column except the group column.
    """

    path: str
    group_col: str = "id"
    coord_cols: Optional[tuple] = None
    delimiter: str = ","
    has_header: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise InvalidParameter(
                f"delimiter must be one character, got {self.delimiter!r}"
            )


def _resolve_columns(manifest: IngestManifest, first_row: list) -> tuple[int, list]:
    if manifest.has_header:
        names = [h.strip() for h in first_row]
        try:
            group_idx = names.index(manifest.group_col)
        except ValueError:
            raise ParseError(
                f"group column {manifest.group_col!r} not in header {names}"
            ) from None
        if manifest.coord_cols is None:
            coord_idx = [i for i in range(len(names)) if i != group_idx]
        else:
            coord_idx = []
            for c in manifest.coord_cols:
                try:
                    coord_idx.append(names.index(str(c)))
                except ValueError:
                    raise ParseError(f"coordinate column {c!r} not in header") from None
    else:
        width = len(first_row)

        def index(value, what: str) -> int:
            try:
                i = int(value)
            except ValueError:
                raise ParseError(
                    f"without a header the {what} must be an index, got {value!r}"
                ) from None
            if not 0 <= i < width:
                raise ParseError(
                    f"{what} index {i} outside the first row's columns 0..{width - 1}"
                )
            return i

        group_idx = index(manifest.group_col, "group column")
        if manifest.coord_cols is None:
            coord_idx = [i for i in range(width) if i != group_idx]
        else:
            coord_idx = [index(c, "coordinate column") for c in manifest.coord_cols]
    if not coord_idx:
        raise ParseError("no coordinate columns")
    return group_idx, coord_idx


def ingest(manifest: IngestManifest) -> list[tuple[str, Cloud]]:
    """Read one cloud per distinct group id, ordered by first appearance.

    Groups may have unequal sizes; every cloud carries uniform weights.

    Raises:
        ParseError: malformed rows, unknown columns (row and column
            reported), column indices outside the first row (files without
            a header), undecodable bytes or fields that csv rejects.
        NonFiniteValue: NaN or infinite coordinate.
        EmptyGroup: the file has no data rows.
    """
    with open(manifest.path, newline="") as handle:
        reader = csv.reader(handle, delimiter=manifest.delimiter)
        try:
            rows = [row for row in reader if row and any(cell.strip() for cell in row)]
        except csv.Error as exc:  # e.g. a field over csv's size limit
            raise ParseError(f"{manifest.path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{manifest.path}: not readable as text: {exc}") from None
    if not rows:
        raise EmptyGroup(f"{manifest.path}: file is empty")
    group_idx, coord_idx = _resolve_columns(manifest, rows[0])
    data_rows = rows[1:] if manifest.has_header else rows
    if not data_rows:
        raise EmptyGroup(f"{manifest.path}: no data rows")

    groups: dict[str, list] = {}
    start = 2 if manifest.has_header else 1
    for lineno, row in enumerate(data_rows, start=start):
        needed = max([group_idx] + coord_idx)
        if len(row) <= needed:
            raise ParseError(
                f"{manifest.path}:{lineno}: row has {len(row)} fields, needs"
                f" {needed + 1}"
            )
        coords = []
        for c in coord_idx:
            text = row[c].strip()
            try:
                value = float(text)
            except ValueError:
                raise ParseError(
                    f"{manifest.path}:{lineno}: column {c}: cannot parse {text!r}"
                ) from None
            if not np.isfinite(value):
                raise NonFiniteValue(
                    f"{manifest.path}:{lineno}: column {c}: non-finite value {text!r}"
                )
            coords.append(value)
        groups.setdefault(row[group_idx].strip(), []).append(coords)
    return [(gid, Cloud(np.asarray(pts))) for gid, pts in groups.items()]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _write_report(path: str, ids: list[str], report: DepthReport) -> None:
    lines = []
    for i, gid in enumerate(ids):
        flagged = "true" if bool(report.outlier_flags[i]) else "false"
        lines.append(
            f'{{"id": {json.dumps(gid)}, "depth": {_fmt(report.values[i])},'
            f' "rank": {int(report.ranks[i])}, "flagged": {flagged}}}'
        )
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _cmd_depth(args) -> int:
    method = _METHOD_FLAGS.get(args.method)
    if method is None:
        print(
            f"error: unknown method {args.method!r}; choose from"
            f" {', '.join(sorted(_METHOD_FLAGS))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        manifest = IngestManifest(
            path=args.input,
            group_col=args.group_col,
            coord_cols=tuple(args.coord_cols.split(",")) if args.coord_cols else None,
            delimiter=args.delimiter,
            has_header=not args.no_header,
        )
        named = ingest(manifest)
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, EmptyGroup, NonFiniteValue, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    ids = [gid for gid, _ in named]
    clouds = [c for _, c in named]
    try:
        report = compute_depths(
            clouds,
            method,
            threshold_quantile=args.threshold,
            bandwidth=args.bandwidth,
            threads=args.threads,
        )
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WsdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    try:
        _write_report(args.out, ids, report)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _config_from_args(args) -> ExperimentConfig:
    return ExperimentConfig(
        experiment=args.experiment,
        case=args.case,
        n=args.n,
        m=args.m,
        d=args.d,
        repetitions=args.reps,
        seed=args.seed,
        threshold_quantile=args.threshold,
        bandwidth=args.bandwidth,
        threads=args.threads,
    )


def _table_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    def cell(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return _fmt(v)
        return str(v)

    lines = ["\t".join(header)]
    lines.extend("\t".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _run_experiment(config: ExperimentConfig) -> tuple[str, dict]:
    if config.experiment == "consistency":
        result = run_consistency(config)
        table = _table_text(
            ["parameter", "analytic", "mean_empirical", "sd_empirical", "repetitions"],
            [
                (r.parameter, r.analytic, r.mean_empirical, r.sd_empirical, r.repetitions)
                for r in result.rows
            ],
        )
        summary = {
            "parameters": [r.parameter for r in result.rows],
            "analytic_values": [r.analytic for r in result.rows],
            "mean_empirical": [r.mean_empirical for r in result.rows],
            "sd_empirical": [r.sd_empirical for r in result.rows],
            "max_abs_gap": max(
                abs(r.mean_empirical - r.analytic) for r in result.rows
            ),
        }
    elif config.experiment == "location_equivalence":
        result = run_location_equivalence(config)
        table = _table_text(
            ["cloud", "wsd", "location_depth"], list(result.rows)
        )
        summary = {
            "max_abs_gap": max(result.max_abs_gaps),
            "rank_correlation_min": min(result.rank_correlations),
            "rank_correlations": list(result.rank_correlations),
        }
    elif config.experiment == "outliers":
        result = run_outlier_experiment(config)
        table = _table_text(
            [
                "repetition",
                "recovered_bottom_k",
                "flagged_planted",
                "flagged_total",
                "all_recovered",
            ],
            [
                (
                    r.repetition,
                    r.recovered_bottom_k,
                    r.flagged_planted,
                    r.flagged_total,
                    r.all_recovered,
                )
                for r in result.recoveries
            ],
        )
        summary = {"recovery_fraction": result.recovery_fraction}
    else:
        result = run_kernel_comparison(config)
        table = _table_text(
            ["cloud", "wsd", "kernel_depth", "exotic"], list(result.rows)
        )
        summary = {
            "wsd_bottom_fraction": result.wsd_bottom_fraction,
            "kernel_bottom_fraction": result.kernel_bottom_fraction,
        }
    summary.update(
        {
            "experiment": config.experiment,
            "case": config.case,
            "n": config.n,
            "m": config.m,
            "d": config.resolved_d,
            "repetitions": config.repetitions,
            "seed": config.seed,
        }
    )
    return table, summary


def _cmd_experiment(args) -> int:
    if args.experiment not in EXPERIMENTS:
        print(
            f"error: unknown experiment {args.experiment!r}; choose from"
            f" {', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        config = _config_from_args(args)
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        table, summary = _run_experiment(config)
    except WsdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    try:
        with open(args.out, "w") as handle:
            handle.write(table)
        with open(args.out + ".summary.json", "w") as handle:
            json.dump(summary, handle, sort_keys=True, indent=2)
            handle.write("\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.experiment not in EXPERIMENTS:
        print(f"error: unknown experiment {args.experiment!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = ExperimentConfig(
            experiment=args.experiment,
            case=args.case,
            n=args.n,
            m=args.m,
            d=args.d,
            seed=args.seed,
        )
        clouds = sample_experiment(config, args.rep)
    except WsdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    d = clouds[0].d
    width = len(str(len(clouds) - 1))
    lines = ["group," + ",".join(f"x{k}" for k in range(d))]
    for i, cloud in enumerate(clouds):
        gid = f"g{i:0{width}d}"
        for row in cloud.points:
            # repr round-trips float64 exactly, so ingest rebuilds the clouds
            lines.append(gid + "," + ",".join(repr(float(v)) for v in row))
    try:
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wsdepth", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    depth = sub.add_parser("depth", help="depth report for a delimited data file")
    depth.add_argument("--input", required=True, help="delimited input file")
    depth.add_argument("--group-col", default="group")
    depth.add_argument("--coord-cols", default=None, help="comma-separated columns")
    depth.add_argument("--delimiter", default=",")
    depth.add_argument("--no-header", action="store_true")
    depth.add_argument("--method", default="wsd")
    depth.add_argument("--threshold", type=float, default=0.05)
    depth.add_argument("--bandwidth", type=float, default=1.0)
    depth.add_argument("--threads", type=int, default=1)
    depth.add_argument("--out", required=True)

    exp = sub.add_parser("experiment", help="run a simulation experiment")
    exp.add_argument("--experiment", required=True)
    exp.add_argument("--case", type=int, default=1)
    exp.add_argument("--n", type=int, default=100)
    exp.add_argument("--m", type=int, default=100)
    exp.add_argument("--d", type=int, default=None)
    exp.add_argument("--reps", type=int, default=1)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--threshold", type=float, default=0.01)
    exp.add_argument("--bandwidth", type=float, default=1.0)
    exp.add_argument("--threads", type=int, default=1)
    exp.add_argument("--out", required=True)

    smp = sub.add_parser("sample", help="dump a seeded two-stage sample as CSV")
    smp.add_argument("--experiment", required=True)
    smp.add_argument("--case", type=int, default=1)
    smp.add_argument("--n", type=int, default=10)
    smp.add_argument("--m", type=int, default=20)
    smp.add_argument("--d", type=int, default=None)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--rep", type=int, default=0)
    smp.add_argument("--out", required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "depth":
        return _cmd_depth(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    return _cmd_sample(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

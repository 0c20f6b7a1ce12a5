"""Command-line surface: ingestion, depth reports, experiments, round trips."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wsdepth
import wsdepth.cli
from wsdepth import (
    EmptyGroup,
    EmptyPopulation,
    IngestManifest,
    InvalidParameter,
    NonFiniteValue,
    NonpositiveBandwidth,
    NumericalError,
    ParseError,
    ingest,
)
from wsdepth.cli import main


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def small_csv(tmp_path):
    rng = np.random.default_rng(3)
    lines = ["group,x0,x1"]
    for gid in range(4):
        for _ in range(6):
            x = rng.normal(size=2) + gid
            lines.append(f"g{gid},{float(x[0])!r},{float(x[1])!r}")
    return write(tmp_path / "small.csv", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def test_ingest_groups_rows_by_id(tmp_path):
    path = write(
        tmp_path / "tiny.csv",
        "group,x0,x1\na,0,0\na,1,1\na,2,2\nb,5,5\nb,6,6\nb,7,7\n",
    )
    named = ingest(IngestManifest(path=path, group_col="group"))
    assert [gid for gid, _ in named] == ["a", "b"]
    for _, cloud in named:
        assert cloud.m == 3 and cloud.d == 2
        assert cloud.is_uniform


def test_ingest_header_only_file_raises(tmp_path):
    path = write(tmp_path / "empty.csv", "group,x0,x1\n")
    with pytest.raises(EmptyGroup):
        ingest(IngestManifest(path=path, group_col="group"))


def test_ingest_reports_parse_position(tmp_path):
    path = write(tmp_path / "bad.csv", "group,x0\na,1.0\na,oops\n")
    with pytest.raises(ParseError, match="3"):
        ingest(IngestManifest(path=path, group_col="group"))


@pytest.mark.parametrize(
    "text, header, where",
    [
        ("group,x,y\n\na,0,0\n\nb,1,\n", True, "gap.csv:5: "),
        ('group,x,y\n"a\nb",0,0\n\na,1,2\nb,1,x\n', True, "gap.csv:6: "),
        ('group,x,y\na,0,0\n\n"b\nc",1,\n', True, "gap.csv:4: "),
        ("\n\n1,0\n\n2,x\n", False, "gap.csv:5: "),
    ],
    ids=["blank-lines", "multi-line-field-before", "multi-line-bad-record",
         "headerless"],
)
def test_ingest_names_the_line_on_which_the_bad_record_starts(
    text, header, where, tmp_path
):
    path = write(tmp_path / "gap.csv", text)
    manifest = IngestManifest(
        path=path, group_col="group" if header else "0", has_header=header
    )
    with pytest.raises(ParseError) as info:
        ingest(manifest)
    assert where in str(info.value)


def test_ingest_rejects_non_finite(tmp_path):
    path = write(tmp_path / "inf.csv", "group,x0\na,1.0\na,inf\n")
    with pytest.raises(NonFiniteValue):
        ingest(IngestManifest(path=path, group_col="group"))


def test_ingest_headerless_and_column_selection(tmp_path):
    path = write(tmp_path / "raw.tsv", "a\t1.0\t9\nb\t2.0\t9\nb\t3.0\t9\n")
    named = ingest(
        IngestManifest(
            path=path,
            group_col="0",
            coord_cols=(1,),
            delimiter="\t",
            has_header=False,
        )
    )
    assert [gid for gid, _ in named] == ["a", "b"]
    assert named[1][1].m == 2 and named[1][1].d == 1


@pytest.mark.parametrize(
    "group_col, coord_cols",
    [("-1", None), ("2", ("0", "-2")), ("3", None), ("0", ("1", "3")), ("-4", None)],
    ids=["negative-group", "negative-coordinate", "group-past-width",
         "coordinate-past-width", "group-below-minus-width"],
)
def test_headerless_column_index_outside_the_row_is_rejected(
    group_col, coord_cols, tmp_path, capsys
):
    path = write(tmp_path / "n.csv", "1.0,2.0,7\n3.0,4.0,7\n5.0,6.0,8\n")
    with pytest.raises(ParseError, match="outside the first row's columns 0..2"):
        ingest(IngestManifest(path, group_col=group_col, coord_cols=coord_cols,
                              has_header=False))
    argv = ["depth", "--input", path, "--no-header", f"--group-col={group_col}",
            "--out", str(tmp_path / "x.jsonl")]
    if coord_cols:
        argv.append(f"--coord-cols={','.join(coord_cols)}")
    code = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize(
    "flags, rows",
    [
        (["--group-col", "g", "--coord-cols", "g,x"], "g,x\n"),
        (["--group-col", "g", "--coord-cols", ""], "g,x\n"),
        (["--no-header", "--group-col", "0", "--coord-cols", "1,0"], ""),
        (["--no-header", "--group-col", "0", "--coord-cols", ""], ""),
    ],
    ids=["group-as-coordinate", "empty-coordinates", "headerless-group-as-coordinate",
         "headerless-empty-coordinates"],
)
def test_cmd_depth_refuses_a_column_selection_without_its_own_coordinates(
    flags, rows, tmp_path, capsys
):
    rows += "".join(f"{g},{x}\n" for g, x in [(1, 0.0), (1, 1.0), (2, 5.0), (3, 2.0)])
    out = tmp_path / "x.jsonl"
    code = main(["depth", "--input", write(tmp_path / "g.csv", rows), *flags,
                 "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


def _unreadable(tmp_path):
    path = tmp_path / "locked.csv"
    path.write_text("group,x0\na,1\n")
    path.chmod(0)
    return path


@pytest.mark.parametrize(
    "make",
    [
        lambda tmp_path: tmp_path / "absent.csv",
        lambda tmp_path: tmp_path,
        pytest.param(
            _unreadable,
            marks=pytest.mark.skipif(
                os.name != "posix" or os.geteuid() == 0,
                reason="root reads files without read permission",
            ),
        ),
    ],
    ids=["missing", "directory", "no-permission"],
)
def test_ingest_input_that_cannot_be_opened_is_a_parse_error(make, tmp_path):
    path = str(make(tmp_path))
    with pytest.raises(ParseError, match="^" + re.escape(path) + ": cannot read: "):
        ingest(IngestManifest(path=path, group_col="group"))


@pytest.mark.parametrize(
    "text, header, group_col",
    [
        ("group,x0,x1\na,1,2\na,3,4\né,5,6\n", True, "group"),
        ("1,2,a\n3,4,a\n5,6,é\n", False, "2"),
    ],
    ids=["header", "no-header"],
)
def test_ingest_reads_utf8_after_a_byte_order_mark(text, header, group_col, tmp_path):
    # the mark is not part of the first field, be it a column name or a number
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    named = ingest(IngestManifest(str(path), group_col=group_col, has_header=header))
    assert [gid for gid, _ in named] == ["a", "é"]
    assert named[0][1].points.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_ingest_refuses_input_that_is_not_utf8(tmp_path):
    path = tmp_path / "utf16.csv"
    path.write_bytes("group,x0\na,1\n".encode("utf-16"))
    with pytest.raises(ParseError, match="not readable as text"):
        ingest(IngestManifest(str(path), group_col="group"))


def test_cmd_depth_reads_a_byte_order_mark_without_a_header(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1,a\n2,a\n3,b\n4,b\n8,c\n9,c\n")
    out = tmp_path / "report.jsonl"
    code = main(["depth", "--input", str(path), "--no-header", "--group-col", "1",
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert [r["id"] for r in read_records(str(out))] == ["a", "b", "c"]


def test_ingest_unequal_group_sizes(tmp_path):
    path = write(tmp_path / "uneven.csv", "group,x0\na,1\na,2\na,3\nb,9\n")
    named = ingest(IngestManifest(path=path, group_col="group"))
    assert named[0][1].m == 3
    assert named[1][1].m == 1


# ---------------------------------------------------------------------------
# depth command
# ---------------------------------------------------------------------------


def read_records(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def test_cmd_depth_writes_records(small_csv, tmp_path):
    out = str(tmp_path / "report.jsonl")
    code = main(
        ["depth", "--input", small_csv, "--group-col", "group",
         "--threshold", "0.25", "--out", out]
    )
    assert code == 0
    records = read_records(out)
    assert [r["id"] for r in records] == ["g0", "g1", "g2", "g3"]
    assert sorted(r["rank"] for r in records) == [1, 2, 3, 4]
    assert sum(r["flagged"] for r in records) == 1  # ceil(0.25 * 4)
    for r in records:
        assert 0.0 <= r["depth"] <= 1.0


def test_cmd_depth_two_groups_yield_zero_depths(tmp_path):
    path = write(
        tmp_path / "two.csv",
        "group,x0\na,0\na,1\nb,5\nb,6\n",
    )
    out = str(tmp_path / "two.jsonl")
    assert main(["depth", "--input", path, "--group-col", "group", "--out", out]) == 0
    assert [r["depth"] for r in read_records(out)] == [0.0, 0.0]


@pytest.mark.parametrize(
    "method", ["wsd", "wsd-discrete", "lens", "metric-spatial", "kernel-spatial"]
)
def test_cmd_depth_supports_every_method(method, small_csv, tmp_path):
    out = str(tmp_path / f"{method}.jsonl")
    code = main(
        ["depth", "--input", small_csv, "--group-col", "group",
         "--method", method, "--out", out]
    )
    assert code == 0
    assert len(read_records(out)) == 4


def test_cmd_depth_unknown_method_is_usage_error(small_csv, tmp_path, capsys):
    code = main(
        ["depth", "--input", small_csv, "--group-col", "group",
         "--method", "nope", "--out", str(tmp_path / "x")]
    )
    assert code == 1
    assert "unknown method" in capsys.readouterr().err


def test_cmd_depth_missing_file_is_ingest_error(tmp_path, capsys):
    code = main(
        ["depth", "--input", str(tmp_path / "absent.csv"), "--out",
         str(tmp_path / "x")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "content, where",
    [
        (b"group,x0\na,0\n\xff\xfe,1\nb,2\n", "bad.csv: "),
        (b"group,x0\na,0\n" + b"b" * 140_000 + b",1\n", "bad.csv:3: "),
    ],
    ids=["undecodable-bytes", "oversized-field"],
)
def test_cmd_depth_unreadable_csv_is_ingest_error(content, where, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    code = main(
        ["depth", "--input", str(path), "--group-col", "group", "--out",
         str(tmp_path / "x.jsonl")]
    )
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert where in lines[0]


def test_cmd_depth_numerical_error_exit_code(tmp_path, capsys):
    path = write(tmp_path / "two.csv", "group,x0\na,0\nb,5\n")
    code = main(
        ["depth", "--input", path, "--group-col", "group", "--method", "lens",
         "--out", str(tmp_path / "x")]
    )
    assert code == 3


@pytest.mark.parametrize(
    "flags",
    [
        ["--threads", "0"],
        ["--threads", "-5"],
        ["--threshold", "2"],
        ["--method", "kernel-spatial", "--bandwidth", "0"],
        ["--method", "kernel-spatial", "--bandwidth", "-1"],
        ["--method", "kernel-spatial", "--bandwidth", "1e-170"],
        ["--method", "kernel-spatial", "--bandwidth", "1e-160"],
        ["--method", "kernel-spatial", "--bandwidth", "inf"],
        ["--method", "kernel-spatial", "--bandwidth", "1e200"],
    ],
)
def test_cmd_depth_bad_parameter_is_configuration_error(
    flags, small_csv, tmp_path, capsys
):
    out = tmp_path / "x.jsonl"
    code = main(
        ["depth", "--input", small_csv, "--group-col", "group", *flags,
         "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_cmd_depth_refuses_a_bandwidth_that_collapses_the_kernel(
    small_csv, tmp_path, capsys
):
    out = tmp_path / "x.jsonl"
    argv = ["depth", "--input", small_csv, "--group-col", "group",
            "--method", "kernel-spatial", "--out", str(out)]
    assert main(argv + ["--bandwidth", "1e10"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "1e+10" in lines[0]
    assert not out.exists()
    assert main(argv + ["--bandwidth", "1e5"]) == 0
    assert out.exists()


@pytest.mark.parametrize("delimiter", ["", ";;"], ids=["empty", "two-characters"])
def test_cmd_depth_rejects_delimiter_not_one_character(
    delimiter, small_csv, tmp_path, capsys
):
    with pytest.raises(InvalidParameter):
        IngestManifest(path=small_csv, delimiter=delimiter)
    out = tmp_path / "x.jsonl"
    code = main(
        ["depth", "--input", small_csv, "--group-col", "group",
         "--delimiter", delimiter, "--out", str(out)]
    )
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


def test_cmd_depth_overflowing_coordinates_exit_three(tmp_path, capsys, recwarn):
    # squared differences of coordinates near 1e160 overflow to inf; the
    # assignment path rejects the cost matrix before the solver sees it
    rng = np.random.default_rng(4)
    lines = ["group,x0,x1"]
    for gid in range(4):
        for row in rng.normal(size=(5, 2)) * 1e160:
            lines.append(f"g{gid}," + ",".join(repr(float(v)) for v in row))
    path = write(tmp_path / "huge.csv", "\n".join(lines) + "\n")
    code = main(
        ["depth", "--input", path, "--group-col", "group", "--out",
         str(tmp_path / "x.jsonl")]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: clouds (0, 1): squared distances overflow float64"
    ]
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_python_dash_m_wsdepth_runs_quietly(small_csv, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(wsdepth.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    # `import wsdepth` must not import the CLI, or runpy warns on `-m wsdepth.cli`
    for module in ("wsdepth", "wsdepth.cli"):
        out = tmp_path / f"{module}.jsonl"
        done = subprocess.run(
            [sys.executable, "-m", module, "depth", "--input", small_csv,
             "--group-col", "group", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (module, done.stderr)
        assert done.stderr == "", module
        assert len(out.read_text().splitlines()) == 4


def test_climate_shaped_ingestion_flags_eight(tmp_path):
    # 150 groups x 40 rows x 12 columns, 5% threshold -> ceil(7.5) = 8 flags
    rng = np.random.default_rng(12)
    lines = ["group," + ",".join(f"x{k}" for k in range(12))]
    for gid in range(150):
        center = rng.normal(size=12)
        for _ in range(40):
            row = center + rng.normal(size=12)
            lines.append(f"y{gid:03d}," + ",".join(repr(float(v)) for v in row))
    path = write(tmp_path / "climate.csv", "\n".join(lines) + "\n")

    named = ingest(IngestManifest(path=path, group_col="group"))
    assert len(named) == 150
    assert all(c.m == 40 and c.d == 12 for _, c in named)

    out = str(tmp_path / "climate.jsonl")
    code = main(
        ["depth", "--input", path, "--group-col", "group",
         "--threshold", "0.05", "--out", out]
    )
    assert code == 0
    records = read_records(out)
    assert len(records) == 150
    assert sum(r["flagged"] for r in records) == 8


# ---------------------------------------------------------------------------
# sample command and round trip
# ---------------------------------------------------------------------------


def test_sample_round_trip_reproduces_clouds_exactly(tmp_path):
    from wsdepth import ExperimentConfig, sample_two_stage

    dump = str(tmp_path / "dump.csv")
    code = main(
        ["sample", "--experiment", "consistency", "--case", "3",
         "--n", "6", "--m", "15", "--seed", "99", "--out", dump]
    )
    assert code == 0
    named = ingest(IngestManifest(path=dump, group_col="group"))
    data = sample_two_stage(
        ExperimentConfig(experiment="consistency", case=3, n=6, m=15, seed=99)
    )
    assert len(named) == 6
    for (gid, cloud), reference in zip(named, data.clouds):
        np.testing.assert_array_equal(cloud.points, reference.points)


def test_sample_includes_planted_outliers(tmp_path):
    dump = str(tmp_path / "out.csv")
    code = main(
        ["sample", "--experiment", "outliers", "--case", "1",
         "--n", "4", "--m", "8", "--seed", "5", "--out", dump]
    )
    assert code == 0
    named = ingest(IngestManifest(path=dump, group_col="group"))
    assert len(named) == 10  # 4 regular + 6 planted


# ---------------------------------------------------------------------------
# experiment command
# ---------------------------------------------------------------------------


def test_cmd_experiment_consistency_case2(tmp_path):
    out = str(tmp_path / "table.tsv")
    code = main(
        ["experiment", "--experiment", "consistency", "--case", "2",
         "--n", "10", "--m", "30", "--reps", "2", "--seed", "1", "--out", out]
    )
    assert code == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0].split("\t") == [
        "parameter", "analytic", "mean_empirical", "sd_empirical", "repetitions"
    ]
    assert len(lines) == 3
    summary = json.loads(Path(out + ".summary.json").read_text())
    assert summary["analytic_values"] == [0.5, 0.5]
    assert summary["experiment"] == "consistency"


def test_cmd_experiment_outliers_summary(tmp_path):
    out = str(tmp_path / "out.tsv")
    code = main(
        ["experiment", "--experiment", "outliers", "--case", "2",
         "--n", "10", "--m", "25", "--reps", "1", "--seed", "3",
         "--threshold", "0.2", "--out", out]
    )
    assert code == 0
    summary = json.loads(Path(out + ".summary.json").read_text())
    assert 0.0 <= summary["recovery_fraction"] <= 1.0


def test_cmd_experiment_location_equivalence_table(tmp_path):
    out = str(tmp_path / "loc.tsv")
    code = main(
        ["experiment", "--experiment", "location_equivalence", "--case", "4",
         "--n", "8", "--m", "30", "--reps", "1", "--seed", "2", "--out", out]
    )
    assert code == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "cloud\twsd\tlocation_depth"
    assert len(lines) == 9
    summary = json.loads(Path(out + ".summary.json").read_text())
    assert -1.0 <= summary["rank_correlation_min"] <= 1.0


def test_cmd_experiment_kernel_comparison_table(tmp_path):
    out = str(tmp_path / "kc.tsv")
    code = main(
        ["experiment", "--experiment", "kernel_comparison", "--case", "2",
         "--n", "6", "--m", "25", "--reps", "1", "--seed", "2", "--out", out]
    )
    assert code == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "cloud\twsd\tkernel_depth\texotic"
    assert len(lines) == 11  # 6 regular + 4 exotic
    summary = json.loads(Path(out + ".summary.json").read_text())
    assert 0.0 <= summary["wsd_bottom_fraction"] <= 1.0


def test_cmd_depth_named_coordinate_subset(tmp_path):
    path = write(
        tmp_path / "named.csv",
        "group,x0,junk,x1\na,0,9,0\na,1,9,1\nb,5,9,5\nb,6,9,6\nc,2,9,3\nc,3,9,2\n",
    )
    out = str(tmp_path / "named.jsonl")
    code = main(
        ["depth", "--input", path, "--group-col", "group",
         "--coord-cols", "x0,x1", "--out", out]
    )
    assert code == 0
    assert len(read_records(out)) == 3


def test_cmd_experiment_invalid_config_is_usage_error(tmp_path, capsys):
    code = main(
        ["experiment", "--experiment", "consistency", "--case", "2",
         "--n", "10", "--m", "30", "--reps", "0", "--seed", "1",
         "--out", str(tmp_path / "x")]
    )
    assert code == 1
    code = main(
        ["experiment", "--experiment", "bogus", "--out", str(tmp_path / "x")]
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "--experiment", "location_equivalence", "--d", "0",
         "--n", "4", "--m", "5"],
        ["sample", "--experiment", "location_equivalence", "--d", "-2"],
        ["sample", "--experiment", "consistency", "--rep", "-1"],
        ["experiment", "--experiment", "kernel_comparison", "--n", "0",
         "--m", "5"],
        ["sample", "--experiment", "kernel_comparison", "--n", "0"],
    ],
    ids=["experiment-d-0", "sample-d-negative", "sample-rep-negative",
         "experiment-kernel-n-0", "sample-kernel-n-0"],
)
def test_bad_dimension_or_repetition_is_one_error_line(argv, tmp_path, capsys):
    out = tmp_path / "x"
    code = main([*argv, "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


def test_location_equivalence_of_two_clouds_is_refused_before_sampling(
    tmp_path, capsys, monkeypatch
):
    # with two clouds both depths are constant, so no rank correlation
    def refuse(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(wsdepth.sim, "sample_two_stage", refuse)
    out = tmp_path / "x"
    code = main(
        ["experiment", "--experiment", "location_equivalence", "--case", "1",
         "--n", "2", "--m", "3", "--reps", "1", "--seed", "1", "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: n must be >= 3, got 2\n"
    assert list(tmp_path.iterdir()) == []


def test_usage_error_exit_code_is_one(capsys):
    assert main(["depth"]) == 1  # missing required flags
    assert main(["bogus"]) == 1


def test_outputs_byte_identical_across_thread_counts(small_csv, tmp_path):
    reports = []
    for threads in (1, 4):
        out = tmp_path / f"t{threads}.jsonl"
        main(
            ["depth", "--input", small_csv, "--group-col", "group",
             "--threads", str(threads), "--out", str(out)]
        )
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_write_failure_is_one_error_line_exit_one(small_csv, tmp_path, capsys):
    out = str(tmp_path)  # an existing directory cannot be opened for writing
    for argv in (
        ["depth", "--input", small_csv, "--group-col", "group"],
        ["experiment", "--experiment", "consistency", "--case", "2",
         "--n", "4", "--m", "5"],
        ["sample", "--experiment", "consistency", "--n", "3", "--m", "4"],
    ):
        code = main([*argv, "--out", out])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1, argv[0]
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize(
    "failure, code",
    [
        (InvalidParameter, 1),
        (NonpositiveBandwidth, 1),
        (ParseError, 2),
        (EmptyGroup, 2),
        (NonFiniteValue, 2),
        (NumericalError, 3),
        (EmptyPopulation, 3),
    ],
)
def test_every_command_maps_a_failure_class_to_one_exit_code(
    failure, code, tmp_path, capsys, monkeypatch
):
    def fail(*args, **kwargs):
        raise failure("planted")

    for name in ("ingest", "run_consistency", "sample_experiment"):
        monkeypatch.setattr(wsdepth.cli, name, fail)
    out = tmp_path / "x"
    for argv in (
        ["depth", "--input", "any.csv"],
        ["experiment", "--experiment", "consistency"],
        ["sample", "--experiment", "consistency"],
    ):
        assert main([*argv, "--out", str(out)]) == code, argv[0]
        assert capsys.readouterr().err == "error: planted\n"
        assert not out.exists()

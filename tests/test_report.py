"""Report tests: axis selection, SVG rendering, file outputs."""

import pytest

from poisonridge import report, sweep
from poisonridge.errors import PoisonRidgeError, SchemaMismatch, UnknownAxis
from poisonridge.sweep import AxisMode, SweepGrid

GRID = SweepGrid(
    c_values=(0.1, 0.5),
    lambda_values=(0.01, 0.1),
    theta_values=(0.1, 0.2),
    vnorm_values=(1.0, 2.0),
    p=30,
    trials=3,
    master_seed=0,
)


@pytest.fixture(scope="module")
def agg_rows():
    records = sweep.run_sweep(GRID, AxisMode.ONE_AT_A_TIME, m_test=50)
    return sweep.aggregate(records)


def test_select_axis_rows_holds_other_defaults(agg_rows):
    rows = report._select_axis_rows(agg_rows, "theta")
    assert [r["theta"] for r in rows] == sorted(r["theta"] for r in rows)
    for r in rows:
        assert r["c_target"] == 0.1
        assert r["lambda"] == 0.1
        assert r["v_norm"] == 1.0


def test_render_panel_structure(agg_rows):
    svg = report.render_panel(agg_rows, "theta", "mu")
    assert svg.startswith("<svg")
    assert svg.endswith("</svg>")
    assert "<polygon" in svg  # IQR band
    assert "<polyline" in svg  # theory curve
    assert svg.count("<circle") == len(report._select_axis_rows(agg_rows, "theta"))
    assert "mean shift" in svg


def test_render_panel_unknown_axis(agg_rows):
    with pytest.raises(KeyError):
        report.render_panel(agg_rows, "bogus", "mu")


def test_make_report_writes_files(tmp_path):
    records = sweep.run_sweep(GRID, AxisMode.ONE_AT_A_TIME, m_test=50)
    csv_path = tmp_path / "run.csv"
    sweep.write_records(csv_path, records)
    written = report.make_report(csv_path, "mu")
    names = {p.split("/")[-1] for p in map(str, written)}
    assert "run_agg.csv" in names
    assert "run_mu_vs_theta.svg" in names
    assert "run_mu_vs_c.svg" in names
    for path in written:
        assert len(open(path, "rb").read()) > 0

    eta_files = report.make_report(csv_path, "eta", axes=["lambda"], outdir=str(tmp_path))
    assert any(str(p).endswith("run_eta_vs_lambda.svg") for p in eta_files)

    with pytest.raises(ValueError):
        report.make_report(csv_path, "nope")


def test_make_report_renders_before_writing(tmp_path):
    records = sweep.run_sweep(GRID, AxisMode.ONE_AT_A_TIME, m_test=50)
    csv_path = tmp_path / "run.csv"
    sweep.write_records(csv_path, records)
    out = tmp_path / "report"
    out.mkdir()
    with pytest.raises(KeyError):
        report.make_report(csv_path, "mu", axes=["theta", "bogus"], outdir=str(out))
    assert not list(out.iterdir())


def test_make_report_rejects_unknown_axis_first(tmp_path):
    records = sweep.run_sweep(GRID, AxisMode.ONE_AT_A_TIME, m_test=50)
    csv_path = tmp_path / "run.csv"
    sweep.write_records(csv_path, records)
    out = tmp_path / "report"
    out.mkdir()
    with pytest.raises(UnknownAxis) as exc:
        report.make_report(csv_path, "mu", axes=["theta", "bogus"], outdir=str(out))
    assert isinstance(exc.value, PoisonRidgeError)
    assert not list(out.iterdir())


def test_make_report_rejects_empty(tmp_path):
    from poisonridge.records import FIELD_NAMES

    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(FIELD_NAMES) + "\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        report.make_report(empty, "mu")

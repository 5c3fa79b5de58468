import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "contract_outputs.py"
spec = importlib.util.spec_from_file_location("contract_outputs", TOOL)
contract_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(contract_outputs)

REPORT = "origin_t,raw_score,prediction\n9,8.004887897570459,0\n10,0.5,1\n"
SUMMARY = {"method": "cif", "threshold": 1.2172688952678108, "counts": [1, 2], "f1": 0.9}


def write_tree(root, report=REPORT, summary=SUMMARY, extra=None):
    (root / "run").mkdir(parents=True)
    (root / "run" / "report.csv").write_text(report)
    (root / "run" / "summary.json").write_text(json.dumps(summary))
    (root / "series.csv.labels").write_text("0\n1\n")
    for name, text in (extra or {}).items():
        (root / name).write_text(text)
    return str(root)


def compare(tmp_path, **new):
    old = write_tree(tmp_path / "old")
    out = io.StringIO()
    code = contract_outputs.compare(old, write_tree(tmp_path / "new", **new), out)
    return code, out.getvalue()


def test_identical_trees_exit_0(tmp_path):
    code, text = compare(tmp_path)
    assert code == 0
    assert text == "0 of 3 common files changed; only float fields moved\n"


def moved(field, old, new):
    return f"  {field}: 1 moved, largest relative move {abs(new - old) / max(old, new):.2g}"


def test_float_moves_are_listed_per_column_and_key(tmp_path):
    score, threshold = 8.004887897570459, 1.2172688952678108
    code, text = compare(
        tmp_path,
        report=REPORT.replace(repr(score), "8.00488789757046"),
        summary=dict(SUMMARY, threshold=1.2172688952678103),
    )
    assert code == 0
    assert text.splitlines() == [
        "changed: run/report.csv",
        moved("raw_score", score, 8.00488789757046),
        "changed: run/summary.json",
        moved("threshold", threshold, 1.2172688952678103),
        "2 of 3 common files changed; only float fields moved",
    ]


@pytest.mark.parametrize(
    "new",
    [
        {"report": REPORT.replace("9,8.004887897570459,0", "9,8.004887897570459,1")},
        {"report": REPORT.replace("origin_t", "origin")},
        {"report": REPORT + "11,0.25,0\n"},
        {"summary": dict(SUMMARY, method="tracin")},
        {"summary": dict(SUMMARY, counts=[1, 3])},
        {"summary": dict(SUMMARY, f1=float("nan"))},
        {"summary": {k: v for k, v in SUMMARY.items() if k != "f1"}},
        {"extra": {"more.json": "{}"}},
    ],
    ids=["int_cell", "header", "row_count", "string_key", "int_key", "nan_key", "missing_key",
         "added_file"],
)
def test_any_other_difference_exits_1(tmp_path, new):
    code, text = compare(tmp_path, **new)
    assert code == 1
    assert text.endswith("non-float fields differ\n")


def test_other_files_compare_by_bytes(tmp_path):
    old = write_tree(tmp_path / "old")
    new = write_tree(tmp_path / "new")
    (tmp_path / "new" / "series.csv.labels").write_text("0\n0\n")
    out = io.StringIO()
    assert contract_outputs.compare(old, new, out) == 1
    assert "changed: series.csv.labels\n  NOT A FLOAT MOVE bytes differ\n" in out.getvalue()


@pytest.mark.parametrize(
    "argv, code",
    [(["-h"], 0), (["--help"], 0), (["--out"], 2), (["-x", "dir"], 2), (["--compare", "old"], 2),
     ([], 2)],
)
def test_usage_and_unknown_options_write_nothing(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    assert contract_outputs.run(argv) == code
    out, err = capsys.readouterr()
    assert (out, err) == ((contract_outputs.USAGE + "\n", "") if code == 0
                          else ("", contract_outputs.USAGE + "\n"))
    assert list(tmp_path.iterdir()) == []


def test_help_from_the_command_line_writes_nothing(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), "--help"], cwd=tmp_path,
                          capture_output=True, text=True, check=False)
    assert (done.returncode, done.stdout) == (0, contract_outputs.USAGE + "\n")
    assert list(tmp_path.iterdir()) == []

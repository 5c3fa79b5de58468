import importlib.util
import statistics
from pathlib import Path

ROOT = Path(__file__).parents[1]
TOOL = ROOT / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

METRICS = ("setup_s", "wall_s", "items_per_s", "peak_rss_mb")


def scripted(old_walls, new_walls):
    """A run_once stand-in: wall_s from the scripts, one call at a time."""
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed, seconds))
        k = sum(c[0] == checkout for c in calls) - 1
        wall = (new_walls if checkout == "NEW" else old_walls)[k]
        values = {"setup_s": 0.05, "wall_s": wall, "items_per_s": 1.0 / wall, "peak_rss_mb": 50.0}
        return {"failed": 0, "metrics": {m: {"value": values[m]} for m in METRICS}}

    return run_once, calls


def summary_rows(text):
    return {line.split()[0]: line for line in text.splitlines() if line.split()[0] in METRICS}


def verdicts(row):
    """The gain and worse columns of a summary row."""
    return row.split()[-2:]


def test_run_order_alternates_and_the_gain_rule_is_applied(monkeypatch, capsys):
    old = [1.0 + 0.01 * k for k in range(10)]
    new = [1.5] + [0.8] * 9  # the change loses the first pair only
    run_once, calls = scripted(old, new)
    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    argv = [str(ROOT), "NEW", "--workload", "detect_cif", "--seed", "7", "--pairs", "10"]
    assert ab_pairs.main(argv + ["--seconds", "2"]) == 0
    # OLD first in pairs 1, 3, ..., NEW first in pairs 2, 4, ...
    assert [c[0] for c in calls] == [str(ROOT), "NEW", "NEW", str(ROOT)] * 5
    assert {c[1:] for c in calls} == {("detect_cif", 7, 2.0)}
    text = capsys.readouterr().out
    assert text.count("\npair ") == 9 and text.startswith("pair 1: ")
    assert "10 pairs of 2 s, OLD first in odd pairs, NEW first in even pairs\n" in text
    rows = summary_rows(text)
    # 9 of 10 won and a median gap far beyond the parent's quartile distance
    for name in ("wall_s", "items_per_s"):
        assert " 9/10" in rows[name] and verdicts(rows[name]) == ["yes", "no"]
    ratio = statistics.median(b / a for a, b in zip(old, new))
    assert f" {ratio:.4f} " in rows["wall_s"]
    # equal values are ties, which count for neither side
    for name in ("setup_s", "peak_rss_mb"):
        assert " 0/10" in rows[name] and verdicts(rows[name]) == ["no", "no"]


def test_eight_of_ten_wins_claim_nothing(monkeypatch, capsys):
    old = [1.0] * 10
    new = [1.2, 1.2] + [0.5] * 8
    monkeypatch.setattr(ab_pairs, "run_once", scripted(old, new)[0])
    ab_pairs.main([str(ROOT), "NEW", "--workload", "w", "--seed", "0", "--pairs", "10"])
    row = summary_rows(capsys.readouterr().out)["wall_s"]
    assert " 8/10" in row and verdicts(row) == ["no", "no"]


def test_the_worse_column_mirrors_the_gain_rule(monkeypatch, capsys):
    old = [1.0 + 0.01 * k for k in range(10)]
    argv = [str(ROOT), "NEW", "--workload", "w", "--seed", "0", "--pairs", "10"]
    # NEW slower in 9 of 10 pairs, by far more than OLD's quartile distance
    monkeypatch.setattr(ab_pairs, "run_once", scripted(old, [0.5] + [1.5] * 9)[0])
    ab_pairs.main(argv)
    text = capsys.readouterr().out
    assert "  gain  worse\n" in text
    rows = summary_rows(text)
    for name in ("wall_s", "items_per_s"):
        assert " 1/10" in rows[name] and verdicts(rows[name]) == ["no", "yes"]
    # 8 losses of 10 flag nothing, nor 10 losses by less than the quartile distance
    for new in ([0.5, 0.5] + [1.5] * 8, [w + 0.001 for w in old]):
        monkeypatch.setattr(ab_pairs, "run_once", scripted(old, new)[0])
        ab_pairs.main(argv)
        assert verdicts(summary_rows(capsys.readouterr().out)["wall_s"]) == ["no", "no"]


def test_fewer_than_ten_pairs_give_no_verdict(monkeypatch, capsys):
    # at 6 pairs nine tenths is 6 of 6, and a null pair of 6 read worse
    old = [1.0 + 0.01 * k for k in range(9)]
    for pairs in (1, 6, 9):
        for new in ([0.5] * pairs, [1.5] * pairs):
            monkeypatch.setattr(ab_pairs, "run_once", scripted(old, new)[0])
            ab_pairs.main([str(ROOT), "NEW", "--workload", "w", "--seed", "0", "--pairs", str(pairs)])
            rows = summary_rows(capsys.readouterr().out)
            assert f" {0 if new[0] > 1 else pairs}/{pairs}" in rows["wall_s"]
            for name in METRICS:
                assert verdicts(rows[name]) == ["n/a", "n/a"], (pairs, name)

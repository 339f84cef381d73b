import json

import pytest

from bellgraphs import upper
from bellgraphs.bell import FULL, at_most, build_bell, scramble
from bellgraphs.cli import main
from bellgraphs.graphs import (
    cycle_graph,
    empty_graph,
    from_graph6,
    is_isomorphic,
    matching_graph,
    to_graph6,
)
from bellgraphs.lineroot import NotLineGraph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestBuild:
    def test_json_output(self, capsys):
        code, payload = run_cli(
            capsys, "build", "--graph", to_graph6(cycle_graph(4)), "--variant", "full"
        )
        assert code == 0
        assert payload["variant"] == "full"
        assert payload["host_graph6"] == to_graph6(cycle_graph(4))
        assert len(payload["vertices"]) == build_bell(cycle_graph(4), FULL).m

    def test_graph_from_file(self, capsys, tmp_path):
        path = tmp_path / "host.g6"
        path.write_text(to_graph6(empty_graph(3)) + "\n")
        code, payload = run_cli(
            capsys, "build", "--graph", str(path), "--variant", "atleast", "--k", "2"
        )
        assert code == 0
        assert payload["k"] == 2 and len(payload["vertices"]) == 4

    def test_dot_and_graph6_sidecars(self, capsys, tmp_path):
        dot = tmp_path / "b.dot"
        g6 = tmp_path / "b.g6"
        code, _ = run_cli(
            capsys, "build", "--graph", to_graph6(empty_graph(3)),
            "--dot", str(dot), "--graph6-out", str(g6),
        )
        assert code == 0
        assert dot.read_text().startswith("graph")
        assert g6.read_text().strip()


class TestReconstruct:
    def test_full_mode_roundtrip(self, capsys):
        host = cycle_graph(5)
        u = scramble(build_bell(host, FULL), 3)
        code, payload = run_cli(
            capsys, "reconstruct", "--mode", "full", "--input", u.to_graph6()
        )
        assert code == 0
        assert is_isomorphic(from_graph6(payload["result_graph6"]), host)
        assert payload["candidates"]["omega5"]
        sets = upper.reconstruct_prime_report(u).candidate_sets
        assert (payload["candidates"]["scanned"], payload["candidates"]["evaluated"]) == (
            sets.scanned, sets.evaluated)
        assert 0 < sets.evaluated < sets.scanned

    def test_upper_auto_mode(self, capsys):
        from bellgraphs.bell import at_least

        host = cycle_graph(5)
        u = scramble(build_bell(host, at_least(4)), 0)
        code, payload = run_cli(
            capsys, "reconstruct", "--mode", "upper-auto", "--input", u.to_graph6()
        )
        assert code == 0
        assert payload["regime"] == "k_eq_n_minus_1"

    def test_lower_mode(self, capsys):
        from bellgraphs.bell import at_most

        host = empty_graph(5)
        u = scramble(build_bell(host, at_most(2)), 0)
        code, payload = run_cli(
            capsys, "reconstruct", "--mode", "lower", "--input", u.to_graph6()
        )
        assert code == 0
        assert payload["rule"] == "k_eq_chi_plus_1"
        assert payload["bound"] == 2
        assert is_isomorphic(from_graph6(payload["result_graph6"]), host)
        accepted = payload["tried"][-1]
        assert accepted["passed"] is True
        assert (accepted["pivot"], accepted["rule"]) == (payload["pivot"], payload["rule"])
        assert "candidate_edge_counts" not in payload and "candidate_count" not in payload


class TestReconstructErrors:
    def test_lower_no_certified_candidate(self, capsys):
        u = build_bell(matching_graph(4, 1), at_most(3)).as_unlabeled()
        code, payload = run_cli(
            capsys, "reconstruct", "--mode", "lower", "--input", u.to_graph6()
        )
        assert code != 0
        assert payload["error"] == "NoCertifiedCandidate"
        assert payload["tried"] and not any(a["passed"] for a in payload["tried"])

    def test_empty_input(self, capsys):
        for mode, extra in (("full", {}), ("lower", {"tried": []})):
            code, payload = run_cli(capsys, "reconstruct", "--mode", mode, "--input", "?")
            assert code != 0
            assert payload == {"mode": mode, "error": "EmptyInput", "message": "no vertices",
                               **extra}

    def test_no_candidate(self, capsys):
        code, payload = run_cli(
            capsys, "reconstruct", "--mode", "full", "--input", to_graph6(empty_graph(2))
        )
        assert code != 0
        assert payload["error"] == "NoCandidate"

    def test_not_line_graph(self, capsys, monkeypatch):
        def reject(graph):
            raise NotLineGraph("rejected")

        monkeypatch.setattr(upper, "krausz_root", reject)
        u = scramble(build_bell(cycle_graph(5), FULL), 0)
        code, payload = run_cli(
            capsys, "reconstruct", "--mode", "upper-auto", "--input", u.to_graph6()
        )
        assert code != 0
        assert payload == {"mode": "upper-auto", "error": "NotLineGraph", "message": "rejected"}


class TestClassify:
    def test_with_oracle(self, capsys):
        code, payload = run_cli(
            capsys, "classify",
            "--g1", to_graph6(empty_graph(3)), "--k1", "2",
            "--g2", to_graph6(from_graph6("Cr")), "--k2", "3",
            "--oracle",
        )
        assert code == 0
        assert payload["equivalent"] == payload["oracle"]


class TestFindPartition:
    def test_matching(self, capsys):
        code, payload = run_cli(
            capsys, "find-partition", "--graph", to_graph6(matching_graph(13, 6))
        )
        assert code == 0
        assert payload["parts"] == 2 and payload["min_part_size"] >= 4

    def test_outside_hypothesis(self, capsys):
        code, payload = run_cli(capsys, "find-partition", "--graph", "B?")
        assert code == 1
        assert payload == {"error": "PreconditionViolated",
                           "message": "max degree 0 not below n/9 - 1/3 for n=3"}


class TestInputErrors:
    """Malformed graph6 text and part bounds below 1 end in argparse's
    one-line usage error with exit code 2."""

    @pytest.mark.parametrize("argv", [
        ("reconstruct", "--mode", "full", "--input", "D?"),
        ("build", "--graph", "D?"),
        ("classify", "--g1", "B?", "--k1", "1", "--g2", "~~", "--k2", "1"),
        ("find-partition", "--graph", "B?x"),
        ("build", "--graph", "B?", "--variant", "atmost", "--k", "0"),
        ("classify", "--g1", "B?", "--k1", "0", "--g2", "B?", "--k2", "1"),
        ("classify", "--g1", "B?", "--k1", "1", "--g2", "B?", "--k2", "-1"),
    ])
    def test_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines()[-1].startswith("bellgraphs ")
        assert "error: argument --" in captured.err

    def test_file_without_graph6_line(self, capsys, tmp_path):
        path = tmp_path / "blank.g6"
        path.write_text("\n\n")
        with pytest.raises(SystemExit) as exc:
            main(["find-partition", "--graph", str(path)])
        assert exc.value.code == 2
        assert "no graph6 line found" in capsys.readouterr().err


class TestVerify:
    def test_passing_suite_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", "core", "--nmax", "3", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["counts"]["fail"] == 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nonsense", "--nmax", "3"])

    def test_deterministic_report(self, capsys):
        code1, r1 = run_cli(capsys, "verify", "--suite", "partitions", "--nmax", "3")
        code2, r2 = run_cli(capsys, "verify", "--suite", "partitions", "--nmax", "3")
        assert (code1, r1) == (code2, r2)


class TestConjecture:
    def test_small_sweep(self, capsys):
        code, payload = run_cli(capsys, "conjecture", "--nmax", "2")
        assert code == 0
        assert payload["counterexample_count"] == 0
        assert payload["pairs_checked"] > 0

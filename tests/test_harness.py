import argparse
import hashlib
import json
import random
import time

import numpy as np
import pytest

from qcograph import cli, verify
from qcograph.cli import main
from qcograph.cotree import MAX_CHILDREN, MAX_DEPTH, parse, to_graph
from qcograph.enumeration import enumerate_cographs
from qcograph.families import FamilySpec, build
from qcograph.graph import MAX_EDGE_LIST_N, Graph, format_edge_list, join
from qcograph.recognition import InternalContradiction, classify
from qcograph.spectra import q_spectrum, report_to_json
from qcograph.sweep import sweep, sweep_to_csv
from qcograph.verify import THEOREM_IDS, cases_to_csv, run_verify
from test_cotree import alternating, threshold_chain


class TestVerifySuites:
    def test_theorem_ids_complete(self):
        assert set(THEOREM_IDS) == {
            "width-bound",
            "complement-invariance",
            "zero-main-union",
            "two-main-characterization",
            "gcs-count",
            "join-kc",
            "spectra-closed-forms",
            "h-families",
            "kappa-eq-a",
            "regular-chordal-complete",
            "nonmain-multiplicities",
        }

    def test_unknown_theorem(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            run_verify("no-such-theorem")

    # (cases, passed, sha1 of the newline-joined case ids); ids only, so no
    # solver float is pinned
    PINNED = {
        "complement-invariance": (241, 241, "9616eb409710dd5152107915e4ea891ca339f7fa"),
        "gcs-count": (522, 522, "51b168751d93e1969e236172fc92d25187839a04"),
        "h-families": (10, 10, "49753774d3fbd7f07d7ba217154dcdc2f24bb137"),
        "join-kc": (90, 90, "0be6017c151426fb79c170512f219d7959ab3a8b"),
        "kappa-eq-a": (16, 16, "196c504fcfea8eb5b906cabc36550ac6fec42f6c"),
        "nonmain-multiplicities": (41, 41, "593811c04cb362ba8d2c59e2b4d33011e3d0852b"),
        "regular-chordal-complete": (5, 5, "cd7145109b2331593ee94d7696a805e5456cf36a"),
        "spectra-closed-forms": (109, 109, "3a58bc704ddf811c1d492e9f23ac0f7430673edd"),
        "two-main-characterization": (17, 17, "52111198089ab179e22ea118748e925ea43ce35c"),
        "width-bound": (41, 41, "fe491876b7bd4129449faaeb340b904f6ae0ac70"),
        "zero-main-union": (350, 350, "855fbb6805d02b845bbbc3893ebf674c55ff08b5"),
    }

    def test_case_ids_pinned(self):
        h_grid = {"families": {"H1": [{"a": 2, "b": 3, "p": 2}], "H6": [{"s": 1, "p1": 1, "p2": 1, "p3": 1}]}}
        got = {}
        for theorem in THEOREM_IDS:
            if theorem == "h-families":
                cases = run_verify(theorem, grid=h_grid)
            elif theorem in ("gcs-count", "spectra-closed-forms"):
                cases = run_verify(theorem)
            else:
                cases = run_verify(theorem, max_n=5)
            digest = hashlib.sha1("\n".join(c.case_id for c in cases).encode()).hexdigest()
            got[theorem] = (len(cases), sum(c.passed for c in cases), digest)
        assert got == self.PINNED

    def test_width_bound_small(self):
        cases = run_verify("width-bound", max_n=5)
        assert len(cases) == 1 + 2 + 4 + 10 + 24
        assert all(c.passed for c in cases)

    def test_deterministic_reports(self):
        a = cases_to_csv(run_verify("regular-chordal-complete", max_n=6))
        b = cases_to_csv(run_verify("regular-chordal-complete", max_n=6))
        assert a == b

    def test_zero_main_union_deterministic(self):
        cases = run_verify("zero-main-union", max_n=5)
        assert all(c.passed for c in cases)
        assert cases_to_csv(cases) == cases_to_csv(run_verify("zero-main-union", max_n=5))

    def test_complement_invariance_includes_random_non_cographs(self):
        cases = run_verify("complement-invariance", max_n=4)
        random_cases = [c for c in cases if "random" in c.case_id]
        assert len(random_cases) == 200
        assert all(c.passed for c in cases)

    def test_kappa_small(self):
        cases = run_verify("kappa-eq-a", max_n=5)
        assert cases and all(c.passed for c in cases)

    def test_h_families_grid_override_failure_detected(self):
        # K_1 u K_b has a bipartite complement: joining a clique onto it keeps
        # two mains, so the three-mains claim must FAIL on this instance
        grid = {"families": {"H1": [{"a": 1, "b": 3, "p": 1}]}}
        cases = run_verify("h-families", grid=grid)
        join_cases = [c for c in cases if c.case_id.startswith("h-families[join")]
        assert join_cases and all(not c.passed for c in join_cases)
        mains_cases = [c for c in cases if c.case_id.startswith("h-families[mains")]
        assert all(c.passed for c in mains_cases)

    def test_max_n_suites_read_the_enumerated_trees(self, monkeypatch):
        from qcograph.verify import _SUITES

        def refuse(text):
            raise AssertionError(f"parse called on {text!r}")

        monkeypatch.setattr(verify, "parse", refuse)
        for theorem, suite in _SUITES.items():
            if suite.max_n is not None:
                assert run_verify(theorem, max_n=6), theorem

    def test_max_n_bool_refused(self):
        with pytest.raises(ValueError, match="--max-n must be an integer in 1..11, got True"):
            run_verify("width-bound", max_n=True)

    def test_max_n_rejected_where_meaningless(self):
        with pytest.raises(ValueError, match="--max-n"):
            run_verify("spectra-closed-forms", max_n=5)

    def test_max_n_suites(self, capsys):
        from qcograph.verify import _SUITES

        assert {tid for tid, s in _SUITES.items() if s.max_n is not None} == {
            "width-bound",
            "complement-invariance",
            "zero-main-union",
            "two-main-characterization",
            "join-kc",
            "kappa-eq-a",
            "regular-chordal-complete",
            "nonmain-multiplicities",
        }
        assert main(["verify", "--theorem", "gcs-count", "--max-n", "5"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--theorem", "width-bound", "--max-n", "0"],
            ["--theorem", "width-bound", "--max-n", "-3"],
            ["--theorem", "width-bound", "--max-n", "12"],
            ["--theorem", "gcs-count", "--grid", '{"specs": []}'],
            ["--theorem", "h-families", "--grid", '{"families": {}}'],
            ["--theorem", "h-families", "--grid", '{"families": {"H1": []}}'],
            ["--theorem", "width-bound", "--grid", '{"specs": []}'],
        ],
    )
    def test_bad_bound_or_empty_grid_is_usage_error(self, capsys, argv):
        start = time.perf_counter()
        assert main(["verify", *argv]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_join_kc_reports_both_forms(self):
        # the bipartite phrasing is exact only where the complement is
        # connected, so the star (complement K_1 u K_3, its first
        # counterexample) gets no bipartite-form row; the zero-main form of
        # the same dichotomy is checked everywhere
        cases = run_verify("join-kc", max_n=4)
        bip = [c for c in cases if c.case_id.startswith("join-kc[bipartite-form")]
        zero = [c for c in cases if c.case_id.startswith("join-kc[zero-main-form")]
        assert 0 < len(bip) < len(zero)
        assert not [c for c in bip if "J(1,U(3))" in c.case_id]
        assert [c for c in zero if "J(1,U(3))" in c.case_id]
        assert all(c.passed for c in cases)

    def test_join_kc_counts_match_the_dense_route(self):
        # k and the joined count are exact counts on bag quotients; the
        # dense solve of each graph and of K_c joined to it is the reference
        cases = run_verify("join-kc", max_n=7)
        seen = set()
        for case in cases:
            c = int(case.case_id.split(",")[1].removeprefix("c="))
            g = to_graph(parse(case.input))
            k = q_spectrum(g).main_count
            joined = q_spectrum(join(Graph.complete(c), g)).main_count
            assert f"(k(g)={k}," in case.predicted, case.case_id
            assert case.computed == f"k = {joined}", case.case_id
            seen.add(case.input)
        # every enumerated cograph with k >= 2 has rows, and no other
        want = {
            s for n in range(1, 8) for s in enumerate_cographs(n).strings
            if q_spectrum(to_graph(parse(s))).main_count >= 2
        }
        assert seen == want
        assert all(c.passed for c in cases)

    def test_closed_forms_run_no_dense_solve(self, monkeypatch):
        def refuse(g, *args, **kwargs):
            raise AssertionError("dense q_spectrum called")

        monkeypatch.setattr(verify, "q_spectrum", refuse)
        cases = run_verify("spectra-closed-forms")
        assert len(cases) == 109 and all(c.passed for c in cases)

    def test_closed_forms_agree_with_the_dense_route(self, monkeypatch):
        # each instance the suite solves on its bags is also solved densely:
        # same groups, multiplicities and main flags, values within 1e-9
        cotree_route = verify.q_spectrum_cotree
        checked = []

        def both_routes(t, *args, **kwargs):
            rep = cotree_route(t, *args, **kwargs)
            dense = q_spectrum(to_graph(t))
            assert [(g.multiplicity, g.main) for g in rep.groups] == [
                (g.multiplicity, g.main) for g in dense.groups
            ]
            assert max(abs(a.value - b.value) for a, b in zip(rep.groups, dense.groups)) <= 1e-9
            checked.append(t)
            return rep

        monkeypatch.setattr(verify, "q_spectrum_cotree", both_routes)
        cases = run_verify("spectra-closed-forms")
        assert len(cases) == 109 and all(c.passed for c in cases)
        assert len(checked) == 109


class TestSweep:
    def test_h6_sweep_shape(self):
        header, rows = sweep(
            {"family": "H6", "params": {"s": [1, 3, 5], "p1": [1, 2], "p2": [1, 2], "p3": [1, 2]}}
        )
        assert len(rows) == 24
        mains_col = header.index("mains")
        s_col = header.index("s")
        for row in rows:
            s = int(row[s_col])
            got = sorted(float(x) for x in row[mains_col].split(";"))
            assert got == pytest.approx(sorted([8 * s - 4.0, s - 1.0]), abs=1e-7)

    def test_complete_sweep_single_main(self):
        header, rows = sweep({"family": "Complete", "params": {"n": list(range(1, 9))}})
        k_col = header.index("main_count")
        assert [row[k_col] for row in rows] == ["1"] * 8

    def test_bipartite_join_diagonal(self):
        header, rows = sweep({"family": "BipartiteJoin", "params": {"a": [1, 2, 3, 4], "b": [1, 2, 3, 4]}})
        k_col = header.index("main_count")
        a_col, b_col = header.index("a"), header.index("b")
        for row in rows:
            expected = "1" if row[a_col] == row[b_col] else "2"
            assert row[k_col] == expected

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            sweep({"family": "Complete", "params": {"n": list(range(1, 9))}}, cap=4)

    def test_cap_below_one_or_bool_refused(self):
        for cap in (0, True):
            with pytest.raises(ValueError, match=f"sweep cap must be an integer >= 1, got {cap!r}"):
                sweep({"family": "Complete", "params": {"n": [1]}}, cap=cap)

    def test_rows_lexicographic(self):
        _, rows = sweep({"family": "BipartiteJoin", "params": {"a": [2, 1], "b": [3, 1]}})
        assert [(r[0], r[1]) for r in rows] == [("1", "1"), ("1", "3"), ("2", "1"), ("2", "3")]

    def test_columns_match_the_dense_graph(self):
        header, rows = sweep({"family": "H3", "params": {"s": [1, 2], "a1": [1, 3], "a2": 2, "p": [2, 3]}})
        names = header[: header.index("n")]
        for row in rows:
            cells = dict(zip(header, row))
            t, g = build(FamilySpec.make("H3", **{k: int(cells[k]) for k in names}))
            report = classify(g).to_json_dict()
            assert (cells["n"], cells["m"]) == (str(g.n), str(g.m))
            assert all(cells[flag] == str(report[flag]).lower() for flag in report if flag != "witness")

    def test_above_the_dense_cap(self):
        header, rows = sweep({"family": "Complete", "params": {"n": MAX_EDGE_LIST_N + 1}})
        cells = dict(zip(header[1:], rows[0][1:]))
        n = MAX_EDGE_LIST_N + 1
        assert (cells["n"], cells["m"], cells["is_complete"]) == (str(n), str(n * (n - 1) // 2), "true")

    def test_csv_render(self):
        header, rows = sweep({"family": "Complete", "params": {"n": [2]}})
        text = sweep_to_csv(header, rows)
        assert text.startswith("n,n,m,r,main_count,mains,")  # param column then graph order
        assert text.endswith("\n")


class TestCli:
    def test_spectrum_json(self, capsys):
        assert main(["spectrum", "--cotree", "J(U(2),U(3))", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["main_count"] == 2
        assert [g["multiplicity"] for g in data["groups"]] == [1, 1, 2, 1]

    def test_spectrum_from_edges(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text("2 1\n0 1\n")
        assert main(["spectrum", "--edges", str(path)]) == 0
        assert "main_count = 1" in capsys.readouterr().out

    def test_spectrum_requires_one_source(self, capsys):
        assert main(["spectrum", "--cotree", "J(2)", "--edges", "x"]) == 2

    def test_classify_json(self, capsys):
        assert main(["classify", "--cotree", "J(U(2),U(2))", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["is_cograph"] and not data["is_chordal"]

    def test_condensed(self, capsys):
        assert main(["condensed", "--cotree", "J(2,U(3))", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["r"] == 2
        assert data["entries"][0][0] == 5.0

    def test_condensed_text(self, capsys):
        assert main(["condensed", "--cotree", "J(2,U(3))"]) == 0
        assert capsys.readouterr().out == (
            "width r = 2\n"
            "  J-bag t=2 p=4 members=[0, 1]\n"
            "  U-bag t=3 p=2 members=[2, 3, 4]\n"
            "  [         5     2.44949]\n"
            "  [   2.44949           2]\n"
            "  eigenvalue 6.37228132327 main\n"
            "  eigenvalue 0.627718676731 main\n"
        )

    def test_build_edges(self, capsys):
        assert main(["build", "--family", '{"family":"Complete","params":{"n":3}}', "--emit", "edges"]) == 0
        assert capsys.readouterr().out == "3 3\n0 1\n0 2\n1 2\n"

    def test_build_family_from_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"family":"H8","params":{"s":2,"p1":1,"p2":1,"p3":1}}')
        assert main(["build", "--family", str(spec)]) == 0
        assert capsys.readouterr().out.strip() == "U(J(2),J(5),J(2,U(J(2),J(2))))"

    def test_enumerate(self, capsys):
        assert main(["enumerate", "--n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == sorted(lines) and len(lines) == 4

    def test_enumerate_to_file(self, tmp_path, capsys):
        out = tmp_path / "c4.txt"
        assert main(["enumerate", "--n", "4", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 10

    def test_verify_pass_and_report(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = main(["verify", "--theorem", "regular-chordal-complete", "--max-n", "5", "--report", str(report)])
        assert code == 0
        text = report.read_text()
        assert text.splitlines()[0] == "case_id,input,predicted,computed,verdict,residual"
        assert "cases pass" in capsys.readouterr().out

    def test_verify_failure_exit_code(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text('{"families": {"H1": [{"a": 1, "b": 3, "p": 1}]}}')
        code = main(["verify", "--theorem", "h-families", "--grid", str(grid)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_internal_contradiction_exit_code(self, monkeypatch, capsys):
        def contradict(source):
            raise InternalContradiction("a structural guarantee failed")

        monkeypatch.setattr("qcograph.cli.classify", contradict)
        assert main(["classify", "--cotree", "J(2)"]) == 3
        assert capsys.readouterr().err.startswith("internal contradiction:")

    def test_verify_reports_byte_identical(self, tmp_path):
        r1, r2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for r in (r1, r2):
            assert main(["verify", "--theorem", "kappa-eq-a", "--max-n", "5", "--report", str(r)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_sweep_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--family", '{"family":"Complete","params":{"n":[1,2,3]}}', "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_bad_cotree_usage_error(self, capsys):
        assert main(["spectrum", "--cotree", "J(2,,3)"]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_ascii_digit_usage_error(self, capsys):
        assert main(["spectrum", "--cotree", "U(²)"]) == 2
        assert "expected an integer (at offset 2)" in capsys.readouterr().err

    def test_bad_family_json(self, capsys):
        assert main(["build", "--family", "{not json"]) == 2

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["spectrum", "--family", '{"family":"Complete","params":{"n":null}}'], None),
            (["spectrum", "--family", '{"family":"Complete","params":{"n":2.7}}'], None),
            (["spectrum", "--family", '{"family":"Complete","params":[3]}'], None),
            (["build", "--family", '{"family":"GeneralizedCoreSatellite","params":{"n0":1,"satellites":5}}'], None),
            (["sweep", "--family", "[1]"], None),
            (["sweep", "--family", '{"family":"H6","params":{"s":null,"p1":1,"p2":1,"p3":1}}'], None),
            (["verify", "--theorem", "h-families", "--grid", '{"families":{"H1":[[1]]}}'], None),
            (["verify", "--theorem", "gcs-count", "--grid", '{"x":1}'], None),
            (["sweep", "--family", '{"family":"Complete","params":{"n":[1,2]}}'], '{"sweep_cap": null}'),
            (["sweep", "--family", '{"family":"Complete","params":{"n":[1,2]}}'], '{"sweep_cap": [3]}'),
            (["sweep", "--family", '{"family":"H6","params":{"s":[],"p1":1,"p2":1,"p3":1}}'], None),
            (["sweep", "--family", '{"family":"H6","params":{"s":1,"p1":1,"p2":1,"p3":1,"p4":2}}'], None),
            (["sweep", "--family", '{"family":"Complete","params":{"n":[3]}}'], '{"tol_main": 1e9}'),
            (["spectrum", "--cotree", "J(3)"], '{"sweep_cap": 5}'),
            (["sweep", "--family", '{"family":"GeneralizedCoreSatellite","params":{"n0":[1,2],"satellites":[[1,2]]}}'], None),
            (["sweep", "--family", '{"family":"H6","params":{"s":[1,"x"],"p1":1,"p2":1,"p3":1}}'], None),
        ],
    )
    def test_malformed_family_input_is_usage_error(self, tmp_path, capsys, argv, config):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            argv = [*argv, "--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_sweep_cap_below_one_is_usage_error(self, tmp_path, capsys):
        family = '{"family":"Complete","params":{"n":[1,2,3,4]}}'
        for cap in (-1, 0):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"sweep_cap": cap}))
            assert main(["sweep", "--family", family, "--config", str(cfg)]) == 2
            assert "sweep cap must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--family", '{"family":"Complete","params":{"n":[1,2]}}', "--config", "{file}"],
            ["spectrum", "--cotree", "J(3)", "--config", "{file}"],
            ["build", "--family", "{file}"],
            ["verify", "--theorem", "gcs-count", "--grid", "{file}"],
        ],
    )
    def test_json_error_names_the_file(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main([str(bad) if a == "{file}" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err and err.count("\n") == 1

    def test_config_keys_validated(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        assert main(["spectrum", "--cotree", "J(2)", "--config", str(cfg)]) == 2

    def test_config_tolerances_used(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tol_group": 1e-9, "tol_main": 1e-5}')
        assert main(["spectrum", "--cotree", "J(3)", "--config", str(cfg), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tolerances"]["tol_group"] == 1e-9

    def test_spectrum_json_names_route(self, tmp_path, capsys):
        k2, p4 = tmp_path / "k2.edges", tmp_path / "p4.edges"
        k2.write_text("2 1\n0 1\n")
        p4.write_text("4 3\n0 1\n1 2\n2 3\n")
        for argv, route in (
            (["--cotree", "J(2,U(3))"], "cotree"),
            (["--family", '{"family":"CompleteSplit","params":{"a":2,"b":3}}'], "cotree"),
            (["--edges", str(k2)], "cotree"),
            (["--edges", str(p4)], "dense"),
        ):
            assert main(["spectrum", *argv, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["route"] == route

    def test_spectrum_table_first_line(self, capsys):
        assert main(["spectrum", "--cotree", "J(2,U(3))"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "n = 5, main_count = 2"

    @pytest.mark.parametrize("flag, value", [("--tol-group", "-1"), ("--tol-main", "nan"), ("--tol-main", "inf")])
    @pytest.mark.parametrize("source", [["--cotree", "J(2,U(3))"], ["--family", '{"family":"Complete","params":{"n":3}}']])
    def test_bad_tolerance_flags(self, capsys, flag, value, source):
        assert main(["spectrum", *source, flag, value]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_tolerance_flags_on_edges(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text("2 1\n0 1\n")
        assert main(["spectrum", "--edges", str(path), "--tol-group", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("text", ['{"tol_group": -1}', '{"tol_main": NaN}', '{"tol_main": "small"}', "[1]"])
    def test_bad_config_tolerances(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["spectrum", "--cotree", "J(2,U(3))", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_cotree_route_output_byte_identical(self, capsys):
        outs = []
        for _ in range(2):
            assert main(["spectrum", "--family", '{"family":"H6","params":{"s":3,"p1":2,"p2":1,"p3":2}}', "--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        h_grid = {"families": {"H7": [{"s": 2, "p1": 2, "p2": 1, "p3": 2}]}}
        gcs_grid = {"specs": [{"family": "CoreUnion", "params": {"c": 2, "a": 1, "b": 3}}]}
        for theorem, grid in (("h-families", h_grid), ("gcs-count", gcs_grid)):
            a = cases_to_csv(run_verify(theorem, grid=grid))
            assert a == cases_to_csv(run_verify(theorem, grid=grid)) and "FAIL" not in a

    @staticmethod
    def fresh_main(capsys, argv):
        """main(argv) on a newly built parser, as the first call of a process makes it: (code, out, err)."""
        cli._build_parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    def test_reused_parser_keeps_calls_independent(self, capsys):
        table = ["spectrum", "--cotree", "J(2,U(3))"]
        good = ["classify", "--cotree", "J(U(2),U(2))"]
        fresh = {tuple(argv): self.fresh_main(capsys, argv) for argv in (table, good, ["condensed"])}
        assert main([*table, "--json", "--tol-group", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["tolerances"]["tol_group"] == 0.5
        assert main(table) == 0
        assert (0, *capsys.readouterr()) == fresh[tuple(table)]
        with pytest.raises(SystemExit) as exc:
            main(["condensed"])  # no --cotree: argparse's usage error
        assert (exc.value.code, *capsys.readouterr()) == fresh[("condensed",)]
        assert fresh[("condensed",)][0] == 2 and "--cotree" in fresh[("condensed",)][2]
        assert main(good) == 0
        assert (0, *capsys.readouterr()) == fresh[tuple(good)]

    def test_reused_parser_prints_the_help_of_a_fresh_one(self, capsys):
        main(["classify", "--cotree", "J(2)"])
        capsys.readouterr()
        fresh = cli._build_parser.__wrapped__()
        assert cli._build_parser() is cli._build_parser()
        for command in ([], ["spectrum"], ["classify"], ["condensed"], ["build"], ["verify"], ["sweep"], ["enumerate"]):
            with pytest.raises(SystemExit):
                fresh.parse_args([*command, "--help"])
            want = capsys.readouterr().out
            with pytest.raises(SystemExit) as exc:
                main([*command, "--help"])
            assert exc.value.code == 0 and capsys.readouterr().out == want
        assert want.startswith("usage: qcograph enumerate")
        assert cli._build_parser().format_help() == fresh.format_help()

    def test_second_call_builds_no_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        assert main(["classify", "--cotree", "J(2)"]) == 0
        assert len(built) == 8  # the command and its seven subcommands
        assert main(["spectrum", "--cotree", "J(2)"]) == 0
        assert len(built) == 8
        cli._build_parser.cache_clear()  # the next call builds with the real __init__


class TestEdgeInputRoute:
    """`spectrum --edges` answers a cograph on its canonical cotree and a
    non-cograph on the dense Q."""

    @staticmethod
    def spectrum(capsys, *argv):
        assert main(["spectrum", *argv, "--json"]) == 0
        return capsys.readouterr().out

    def test_cographs_to_8_answer_as_their_canonical_cotree(self, tmp_path, capsys):
        rng = random.Random(20)
        path = tmp_path / "g.edges"
        count = 0
        for n in range(1, 9):
            for s in enumerate_cographs(n).strings:
                perm = rng.sample(range(n), n)
                g = Graph(to_graph(parse(s)).adj[np.ix_(perm, perm)])
                path.write_text(format_edge_list(g))
                out = self.spectrum(capsys, "--edges", str(path))
                assert out == self.spectrum(capsys, "--cotree", s), (s, perm)
                got, dense = json.loads(out), q_spectrum(g)
                assert got["route"] == "cotree" and got["main_count"] == dense.main_count
                assert [(grp["multiplicity"], grp["main"]) for grp in got["groups"]] == [
                    (grp.multiplicity, grp.main) for grp in dense.groups
                ], s
                assert all(abs(a["value"] - b.value) <= 1e-9 for a, b in zip(got["groups"], dense.groups)), s
                count += 1
        assert count == 809

    def test_non_cographs_keep_the_dense_route(self, tmp_path, capsys):
        rng = random.Random(21)
        graphs = [Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])]
        while len(graphs) < 22:
            n = rng.randint(4, 12)
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
            if not classify(g).is_cograph:
                graphs.append(g)
        path = tmp_path / "g.edges"
        for g in graphs:
            path.write_text(format_edge_list(g))
            out = self.spectrum(capsys, "--edges", str(path))
            assert out == report_to_json(q_spectrum(g)) + "\n"
            assert json.loads(out)["route"] == "dense"

    def test_no_vertex_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.edges"
        path.write_text("0 0\n")
        assert main(["spectrum", "--edges", str(path)]) == 2
        assert capsys.readouterr().err == "error: spectral operations require at least one vertex\n"


class TestFamilySizeCap:
    BIG = json.dumps({"family": "Complete", "params": {"n": MAX_EDGE_LIST_N + 1}})
    GCS_BIG = json.dumps(
        {"specs": [{"family": "GeneralizedCoreSatellite", "params": {"n0": MAX_EDGE_LIST_N, "satellites": [[1, 1]]}}]}
    )

    @pytest.mark.parametrize("argv", [["build", "--family", BIG, "--emit", "edges"]])
    def test_dense_consumers_refuse(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(MAX_EDGE_LIST_N + 1) in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["build", "--family", BIG], ["spectrum", "--family", BIG], ["sweep", "--family", BIG]],
    )
    def test_cotree_routes_have_no_cap(self, capsys, argv):
        assert main(argv) == 0
        assert str(MAX_EDGE_LIST_N + 1) in capsys.readouterr().out

    def test_gcs_count_has_no_cap(self, capsys):
        assert main(["verify", "--theorem", "gcs-count", "--grid", self.GCS_BIG]) == 0
        assert "gcs-count: 1/1 cases pass" in capsys.readouterr().out

    def test_h_families_has_no_cap(self, capsys):
        # two stars K_{1,2048}: n = 4098
        grid = '{"families":{"H2p":[{"b":2048,"p":2}]}}'
        assert main(["verify", "--theorem", "h-families", "--grid", grid]) == 0
        assert "h-families: 5/5 cases pass" in capsys.readouterr().out


class TestExactMainCounts:
    """Suites whose computed side is only a main count read it exactly, so a
    main eigenvalue whose projection norm the float route puts below tol_main
    still counts (both specs have three mains; the float route reads two)."""

    def test_h_families_join_of_a_large_clique_part(self, capsys):
        grid = '{"families":{"H1":[{"a":2,"b":4095,"p":1}]}}'
        assert main(["verify", "--theorem", "h-families", "--grid", grid]) == 0
        assert "h-families: 5/5 cases pass" in capsys.readouterr().out

    def test_gcs_count_of_a_large_core(self, capsys):
        spec = {"family": "GeneralizedCoreSatellite", "params": {"n0": 100000, "satellites": [[3, 5], [2, 7]]}}
        assert main(["verify", "--theorem", "gcs-count", "--grid", json.dumps({"specs": [spec]})]) == 0
        assert "gcs-count: 1/1 cases pass" in capsys.readouterr().out


class TestBadEdgeLists:
    def test_order_above_cap_is_usage_error(self, tmp_path, capsys):
        edges = tmp_path / "big.edges"
        edges.write_text(f"{MAX_EDGE_LIST_N + 1} 0\n")
        assert main(["spectrum", "--edges", str(edges)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(MAX_EDGE_LIST_N) in err


class TestWideCotrees:
    WIDE = "U(100000*J(2))"  # 100,000 bags

    @pytest.mark.parametrize("command", ["spectrum", "condensed"])
    def test_dense_bag_routes_refuse(self, capsys, command):
        assert main([command, "--cotree", self.WIDE]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "100000" in err and str(MAX_EDGE_LIST_N) in err
        assert err.count("\n") == 1

    def test_shared_wide_tree_is_refused_before_the_walk(self, capsys):
        # 2,000,000 bags from a few distinct nodes: counted, and refused before any is walked
        start = time.perf_counter()
        assert main(["spectrum", "--cotree", "U(2*J(1000*U(1000*J(2))))"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "r = 2000000 bags" in err and err.count("\n") == 1

    def test_classify_answers(self, capsys):
        assert main(["classify", "--cotree", self.WIDE, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["witness"] == [0, 1, 2, 3]


class TestWideFamilies:
    """A family tree of many bags in few symmetry classes: counted exactly,
    and refused by the spectrum before it is put in canonical order."""

    WIDE = '{"family":"CoreSatellite","params":{"c":1,"t":5000,"a":2}}'  # K_1 joined to 5,000 K_2: 5,001 bags

    def test_gcs_count_of_many_equal_satellites(self, tmp_path, capsys):
        report = tmp_path / "gcs.csv"
        argv = ["verify", "--theorem", "gcs-count", "--grid", f'{{"specs":[{self.WIDE}]}}', "--report", str(report)]
        assert main(argv) == 0
        assert "gcs-count: 1/1 cases pass" in capsys.readouterr().out
        assert report.read_text().splitlines()[1].endswith(",k = 2 (CoreSatelliteP1),k = 2,PASS,0")

    def test_spectrum_refuses_before_canonicalize(self, monkeypatch, capsys):
        def refuse(_):
            raise AssertionError("canonicalize called")

        for module in ("cli", "families", "cotree"):
            monkeypatch.setattr(f"qcograph.{module}.canonicalize", refuse)
        assert main(["spectrum", "--family", self.WIDE]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "r = 5001 bags" in err and err.count("\n") == 1


class TestOversizedCounts:
    """A count of more than MAX_CHILDREN children of one node is a usage
    error, given at once and with no traceback."""

    GCS = {"family": "GeneralizedCoreSatellite", "params": {"n0": 10**12, "satellites": [[3, 5], [2, 7]]}}

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--cotree", "K(1000000000000)"],
            ["classify", "--cotree", "U(1000000000*J(2))"],
            ["classify", "--cotree", "U(1000*U(1000*U(1000*J(2))))"],
            ["spectrum", "--family", '{"family":"Complete","params":{"n":1000000000000}}'],
            ["verify", "--theorem", "gcs-count", "--grid", json.dumps({"specs": [GCS]})],
        ],
    )
    def test_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and str(MAX_CHILDREN) in err


class TestDeepCotrees:
    def test_too_deep_is_usage_error(self, capsys):
        for command in ("spectrum", "classify", "condensed"):
            assert main([command, "--cotree", alternating(1500)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "nested deeper" in err and "Traceback" not in err

    def test_deep_threshold_graph_is_answered(self, tmp_path, capsys):
        # its cotree nests 599 nodes; MAX_DEPTH limits only the DSL
        edges = tmp_path / "threshold600.edges"
        edges.write_text(format_edge_list(threshold_chain(600)))
        assert main(["classify", "--edges", str(edges)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "is_threshold: True" in out and "witness: None" in out

    @pytest.mark.slow
    def test_deepest_accepted_runs_everywhere(self, tmp_path, capsys):
        expr = alternating(MAX_DEPTH)
        edges = tmp_path / "deep.edges"
        edges.write_text(format_edge_list(to_graph(parse(expr))))
        dense = q_spectrum(to_graph(parse(expr))).to_json_dict()
        for argv in (["--cotree", expr], ["--edges", str(edges)]):
            assert main(["spectrum", *argv, "--json"]) == 0
            cot = json.loads(capsys.readouterr().out)
            assert cot["route"] == "cotree"
            assert cot["n"] == dense["n"] == MAX_DEPTH + 1
            assert cot["main_count"] == dense["main_count"]
            assert [(g["multiplicity"], g["main"]) for g in cot["groups"]] == [
                (g["multiplicity"], g["main"]) for g in dense["groups"]
            ]
            assert all(abs(a["value"] - b["value"]) <= 1e-9 for a, b in zip(cot["groups"], dense["groups"]))
        assert main(["classify", "--cotree", expr, "--json"]) == 0
        flags = json.loads(capsys.readouterr().out)
        assert flags["is_threshold"] and flags["is_connected"]
        assert main(["condensed", "--cotree", expr, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["r"] == MAX_DEPTH  # the innermost node holds two leaves

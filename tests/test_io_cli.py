import csv
import json

import numpy as np
import pytest

from pbcrt import (
    EstimatorKind,
    PopulationMixture,
    SimScenario,
    TrialValidationError,
    VarianceComponents,
    emit_trial_csv,
    estimand_weights,
    generate_trial,
    load_scenario_json,
    load_size_table,
    parse_trial_csv,
)
from pbcrt.cli import main
from pbcrt.estimands import neme_weight

from oracles import from_cell_means


HEADER = "cluster_id,period,sequence,outcome\n"


def small_trial():
    return from_cell_means([
        ("a", 1, 1, 1, 1.0, 2.5), ("b", 0, 1, 1, 0.5, 1.0)])


def sim_trial(seed=0, n_clusters=6, k=8, rho=0.05):
    sc = SimScenario(n_clusters=n_clusters,
                     mixture=PopulationMixture([(1.0, k, 0.4)]),
                     vc=VarianceComponents.from_iccs(1.0, rho), reps=1,
                     master_seed=seed)
    return generate_trial(sc, 0)


class TestTrialCsv:
    def test_round_trip(self, tmp_path):
        t = sim_trial()
        path = tmp_path / "t.csv"
        emit_trial_csv(t, path)
        t2 = parse_trial_csv(path)
        assert t2.cells.n_clusters == t.cells.n_clusters
        assert np.allclose(t2.outcomes, t.outcomes)
        a, b = t.cells, t2.cells
        for name in ("ids", "sequence", "k0", "k1"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert b.mean1 + b.origin == pytest.approx(a.mean1 + a.origin, abs=1e-12)

    def test_minimal_four_row_file(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_trial_csv(small_trial(), path)
        t = parse_trial_csv(path)
        assert t.cells.n_obs == 4

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,period,outcome\na,0,1.0\n")
        with pytest.raises(TrialValidationError, match="sequence"):
            parse_trial_csv(path)

    def test_bad_period_has_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,period,sequence,outcome\n"
                        "a,0,0,1.0\na,1,0,1.0\nb,7,1,2.0\nb,1,1,2.0\n")
        with pytest.raises(TrialValidationError, match=":4:"):
            parse_trial_csv(path)

    @pytest.mark.parametrize("text, message", [
        (HEADER + "a,0,0,1.0\na,1,0,1.0\nb,0,2,2.0\nb,1,1,2.0\n",
         ":4: sequence must be 0 or 1, got 2"),
        (HEADER + "a,0,0,1.0\na,1,0,1.0\nb,0,x,2.0\n",
         ":4: invalid literal for int() with base 10: 'x'"),
        (HEADER + "a,0,0,1.0\n\n\nb,0,1,x\n",
         ":5: could not convert string to float: 'x'"),
        (HEADER + "a,0,0,1.0\n\na,1,0,1.0\nb,2,1,2.0\n",
         ":5: period must be 0 or 1, got 2"),
        ("outcome,period,sequence,cluster_id\n1.0,0,0,a\n\n2.0,1,0\n",
         ":4: no cluster_id"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, text, message):
        # The first bad row's error carries its own line of the file,
        # blank lines counted.
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(TrialValidationError) as info:
            parse_trial_csv(path)
        assert str(info.value) == f"{path}{message}"

    def test_non_numeric_outcome(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,period,sequence,outcome\na,0,0,oops\n")
        with pytest.raises(TrialValidationError, match=":2:"):
            parse_trial_csv(path)

    def test_inconsistent_sequence_names_cluster(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,period,sequence,outcome\n"
                        "a,0,0,1.0\na,1,1,1.0\nb,0,1,1.0\nb,1,1,1.0\n")
        with pytest.raises(TrialValidationError, match="'a'"):
            parse_trial_csv(path)

    def test_columns_by_name_extra_columns_and_blank_lines(self, tmp_path):
        # Columns are found by header name, extra columns are ignored and
        # blank lines skipped; a short row's error names its own line.
        path = tmp_path / "t.csv"
        path.write_text("note,outcome,sequence,period,cluster_id\n"
                        "x,1.5,0,0,a\n\ny,2.5,0,1,a\nz,3.0,1,0,b\n"
                        "\nw,4.0,1,1,b,extra\n")
        t = parse_trial_csv(path)
        assert list(t.cluster_ids) == ["a", "a", "b", "b"]
        assert t.periods.tolist() == [0, 1, 0, 1]
        assert t.sequences.tolist() == [0, 0, 1, 1]
        assert t.outcomes.tolist() == [1.5, 2.5, 3.0, 4.0]
        with open(path, "a") as fh:
            fh.write("\nv,5.0,1\n")
        with pytest.raises(TrialValidationError, match=":9: int"):
            parse_trial_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TrialValidationError):
            parse_trial_csv(path)


class TestSizeTable:
    def test_dimensions_and_first_row(self):
        rows = load_size_table()
        assert len(rows) == 28
        cid, seq, k0, k1 = rows[0]
        assert (k0, k1) == (48, 70)
        assert all(k0 >= 1 and k1 >= 1 for _, _, k0, k1 in rows)

    def test_skeleton_trial_sizes(self):
        t = from_cell_means(
            (cid, seq, k0, k1, 0.0, 0.0) for cid, seq, k0, k1 in load_size_table())
        assert t.cells.n_clusters == 28
        table = {cid: (k0, k1) for cid, _, k0, k1 in load_size_table()}
        c = t.cells
        for cid, k0, k1 in zip(c.ids, c.k0, c.k1):
            assert (k0, k1) == table[cid]
        assert not t.cells.equal_period_sizes


class TestScenarioJson:
    def test_load(self, tmp_path):
        doc = {"n_clusters": 8,
               "mixture": [[0.5, 20, 0.2], [0.5, 100, 0.5]],
               "vc": {"sigma_w2": 1.0, "tau_alpha2": 0.053,
                      "tau_gamma2": 0.013},
               "reps": 2, "master_seed": 5, "estimators": ["iee", "nemew"],
               "jackknife": False}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        sc = load_scenario_json(path)
        assert sc.n_clusters == 8
        assert sc.estimators == (EstimatorKind.IEE, EstimatorKind.NEMEW)
        assert sc.vc.tau_gamma2 == 0.013
        assert not sc.jackknife

    def test_bad_config(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"mixture": []}))
        with pytest.raises(TrialValidationError):
            load_scenario_json(path)

    def test_round_trip_every_field(self, tmp_path):
        # Every field away from its default survives to_dict, JSON and
        # load_scenario_json; both mixture row forms read alike.
        sc = SimScenario(
            n_clusters=6,
            mixture=PopulationMixture([(0.25, 3, 0.1), (0.75, (9, 9), -0.2)]),
            vc=VarianceComponents(2.0, 0.3, 0.07), mu=-1.5, phi1=0.4, reps=7,
            master_seed=11, estimators=(EstimatorKind.FEW, EstimatorKind.EME),
            ci_level=0.9, jackknife=False, fixed_sizes=True, fixed_split=True)
        defaults = SimScenario(n_clusters=4, mixture=sc.mixture,
                               vc=VarianceComponents(1.0))
        doc = sc.to_dict()
        assert all(v != defaults.to_dict()[k] for k, v in doc.items()
                   if k != "mixture")
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        back = load_scenario_json(path)
        assert back.to_dict() == doc
        assert back == SimScenario(**{**vars(sc), "mixture": back.mixture})
        doc["mixture"] = [[0.25, 3, 0.1], [0.75, 9, -0.2]]
        path.write_text(json.dumps(doc))
        assert load_scenario_json(path).to_dict() == sc.to_dict()

    def test_large_seed_accepted(self, tmp_path):
        # SeedSequence takes any non-negative integer, 2**63 and above too.
        doc = {"n_clusters": 4, "mixture": [[1.0, 5, 0.3]],
               "vc": {"sigma_w2": 1.0}, "reps": 1, "master_seed": 10**20}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        sc = load_scenario_json(path)
        assert sc.master_seed == 10**20 and sc.to_dict()["master_seed"] == 10**20
        assert generate_trial(sc, 0).cells.n_obs > 0

    def test_unknown_keys_rejected(self, tmp_path):
        # A misspelt key is an error naming every unknown key, at the top
        # level and in vc, not a silent default.
        doc = {"n_clusters": 4, "mixture": [[1.0, 5, 0.3]],
               "vc": {"sigma_w2": 1.0, "tau_alpa2": 0.1},
               "jacknife": False, "rep": 3}
        with pytest.raises(ValueError) as err:
            SimScenario.from_dict(doc)
        assert str(err.value) == "unknown scenario keys: jacknife, rep, vc.tau_alpa2"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TrialValidationError,
                           match="s.json: bad scenario config: unknown scenario keys"):
            load_scenario_json(path)

    def test_bad_config_names_path(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"n_clusters": 4, "vc": {"sigma_w2": 1.0},
                                    "mixture": [[1.0, 5]]}))
        with pytest.raises(TrialValidationError, match="s.json: bad scenario"):
            load_scenario_json(path)


class TestCli:
    def test_limits_prints_truths(self, capsys):
        rc = main(["limits", "--subpop", "0.5,20,0.2", "--subpop",
                   "0.5,100,0.5", "--tau-alpha2", "0.053",
                   "--tau-gamma2", "0.013"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pATE 0.45" in out
        assert "cATE 0.35" in out
        assert "plim nemew" in out

    def test_limits_unequal_period_sizes(self, capsys):
        # eme and neme have limits with unequal period sizes; emew and
        # nemew are refused as their fits are.
        rc = main(["limits", "--subpop", "0.5,20:40,0.2", "--subpop",
                   "0.5,100:60,0.5", "--tau-alpha2", "0.053",
                   "--tau-gamma2", "0.013"])
        refused = ("unsupported (inverse cluster-period size weights with a "
                   "correlated structure require equal period sizes within "
                   "every cluster)")
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "pATE 0.38", "cATE 0.35", "plim iee    0.38", "plim ieew   0.35",
            "plim fe     0.421311", "plim few    0.35", "plim eme    0.400751",
            f"plim emew   {refused}", "plim neme   0.378107",
            f"plim nemew  {refused}"]

    @pytest.mark.parametrize("command", ["fit", "simulate", "weights",
                                         "simulate --csv", "fit --json"])
    def test_file_errors_exit_code(self, tmp_path, capsys, monkeypatch, command):
        # A missing input or output path is one `error:` line naming it;
        # simulate checks its output directories before the study, and fit
        # its JSON directory before reading the trial.
        import pbcrt.cli

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_clusters": 4, "mixture": [[1.0, 5, 0.3]],
                                   "vc": {"sigma_w2": 1.0}, "reps": 1}))
        trial_path = tmp_path / "t.csv"
        emit_trial_csv(sim_trial(), trial_path)
        gone = str(tmp_path / "missing" / "x.csv")
        argv, message = {
            "fit": (["fit", gone, "--estimator", "iee"],
                    f"[Errno 2] No such file or directory: {gone!r}"),
            "simulate": (["simulate", gone, "--csv", str(tmp_path / "s.csv"),
                          "--json", str(tmp_path / "s.json")],
                         f"[Errno 2] No such file or directory: {gone!r}"),
            "weights": (["weights", "--k1", "20", "--k2", "100", "--out", gone],
                        f"[Errno 2] No such file or directory: {gone!r}"),
            "simulate --csv": (["simulate", str(cfg), "--csv", gone, "--json",
                                str(tmp_path / "s.json")],
                               f"--csv: the directory of {gone!r} does not exist"),
            "fit --json": (["fit", str(trial_path), "--estimator", "iee",
                            "--json", gone],
                           f"--json: the directory of {gone!r} does not exist"),
        }[command]
        monkeypatch.setattr(pbcrt.cli, "run_study", lambda sc: pytest.fail("ran"))
        if command == "fit --json":
            monkeypatch.setattr(pbcrt.cli, "parse_trial_csv",
                                lambda path: pytest.fail("read the trial"))
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_weights_grid_and_optima(self, tmp_path, capsys):
        out_csv = tmp_path / "w.csv"
        rc = main(["weights", "--scheme", "emew", "--k1", "20", "--k2", "100",
                   "--step", "0.05", "--out", str(out_csv)])
        assert rc == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["rho"]) == 0.0
        assert float(rows[0]["lambda_1"]) == 1.0
        assert float(rows[0]["lambda_2"]) == 1.0
        out = capsys.readouterr().out
        assert "optimal rho 0.0155653" in out

    def test_weights_nemew_rows_are_normalized_neme_weights(self, tmp_path):
        out_csv = tmp_path / "w.csv"
        rc = main(["weights", "--scheme", "nemew", "--cac", "0.8", "--k1", "20",
                   "--k2", "100", "--p1", "0.3", "--step", "0.05",
                   "--out", str(out_csv)])
        assert rc == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21
        for row in rows:
            vc = VarianceComponents.from_iccs(1.0, float(row["rho"]), 0.8)
            g = neme_weight(np.array([20.0, 100.0]), vc.rho_wp, vc.rho_bp)
            lam = g / np.sum(np.array([0.3, 0.7]) * g)
            assert (float(row["lambda_1"]), float(row["lambda_2"])) == tuple(lam)
        mix = PopulationMixture.two_point(0.3, 20, 100, 0.0, 0.0)
        with pytest.raises(ValueError, match="emew and nemew, not eme"):
            estimand_weights(EstimatorKind.EME, mix, vc)

    @pytest.mark.parametrize("cac", ["1.5", "nan", "-0.1"])
    def test_weights_bad_cac_keeps_out_file(self, tmp_path, capsys, cac):
        # --cac is checked with the other flags, before --out is opened.
        out_csv = tmp_path / "w.csv"
        out_csv.write_bytes(b"kept\n")
        rc = main(["weights", "--scheme", "nemew", "--cac", cac, "--k1", "20",
                   "--k2", "100", "--out", str(out_csv)])
        out, err = capsys.readouterr()
        assert rc == 1 and out == "" and out_csv.read_bytes() == b"kept\n"
        assert err == f"error: --cac must lie in [0, 1], got {float(cac)!r}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--step", "0"], "--step must lie in (0, 1]"),
        (["--step", "nan"], "--step must lie in (0, 1]"),
        (["--step", "1.5"], "--step must lie in (0, 1]"),
        (["--step", "1e-300"], "--step must lie in (0, 1] and give at most 1e6"),
        (["--rho-max", "inf"], "--rho-max must lie in [0, 1], got inf"),
        (["--rho-max", "-0.1"], "--rho-max must lie in [0, 1], got -0.1"),
    ])
    def test_weights_grid_flags_checked(self, tmp_path, capsys, flags, message):
        # A step or --rho-max that cannot make a grid is one `error:` line
        # naming the flag, before the grid is built or the file opened.
        out_csv = tmp_path / "w.csv"
        rc = main(["weights", "--k1", "20", "--k2", "100", *flags,
                   "--out", str(out_csv)])
        out, err = capsys.readouterr()
        assert rc == 1 and out == "" and not out_csv.exists()
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("subpop, message", [
        ("0.5,100,nan", "subpopulation 1 needs a positive finite probability "
                        "and a finite effect, got 0.5, nan"),
        ("inf,100,0.5", "subpopulation 1 needs a positive finite probability "
                        "and a finite effect, got inf, 0.5"),
        ("0.5,100:60:40,0.5", "subpopulation 1 needs one size or a (k0, k1) "
                              "pair, got (100, 60, 40)"),
    ])
    def test_limits_non_finite_subpopulation(self, capsys, subpop, message):
        rc = main(["limits", "--subpop", "0.5,20,0.2", "--subpop", subpop])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_fit_outputs_json(self, tmp_path, capsys):
        trial_path = tmp_path / "t.csv"
        emit_trial_csv(sim_trial(), trial_path)
        json_path = tmp_path / "f.json"
        rc = main(["fit", str(trial_path), "--estimator", "eme",
                   "--variance", "both", "--json", str(json_path)])
        assert rc == 0
        doc = json.loads(json_path.read_text())
        assert set(doc) >= {"delta_hat", "model", "jackknife"}
        assert doc["model"]["variance"] > 0
        out = capsys.readouterr().out
        assert "delta_hat" in out

    def test_fit_reports_nonconvergence(self, tmp_path, capsys, monkeypatch):
        # Non-converged REML leaves stdout as it is, sets "converged" in
        # the JSON and warns on stderr.
        import pbcrt.estimators as est

        trial_path = tmp_path / "t.csv"
        emit_trial_csv(sim_trial(), trial_path)
        json_path = tmp_path / "f.json"
        argv = ["fit", str(trial_path), "--estimator", "neme",
                "--variance", "both", "--json", str(json_path)]
        runs = []
        for converges in (True, False):
            if not converges:
                reml = est.estimate_variance_components
                monkeypatch.setattr(
                    est, "estimate_variance_components",
                    lambda *a, **kw: [(vc, False) for vc, _ in reml(*a, **kw)])
            assert main(argv) == 0
            runs.append((capsys.readouterr(),
                         json.loads(json_path.read_text())))
        (ok, ok_doc), (bad, bad_doc) = runs
        assert ok_doc["converged"] and not bad_doc["converged"]
        assert bad.out == ok.out
        assert ok.err == ""
        assert "did not converge" in bad.err

    def test_fit_validation_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,period,sequence,outcome\na,0,0,1.0\n")
        rc = main(["fit", str(path), "--estimator", "iee"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_fit_overflowing_outcomes_exit_code(self, tmp_path, capsys):
        t = sim_trial()
        path = tmp_path / "huge.csv"
        path.write_text("cluster_id,period,sequence,outcome\n" + "".join(
            f"{c},{p},{s},{1e160 * y!r}\n" for c, p, s, y in
            zip(t.cluster_ids, t.periods, t.sequences, t.outcomes)))
        rc = main(["fit", str(path), "--estimator", "neme"])
        assert rc == 1
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("variance", ["model", "jackknife", "both"])
    @pytest.mark.parametrize("estimator", ["iee", "fe"])
    def test_fit_two_clusters_refuses_t_inference(self, tmp_path, capsys,
                                                  estimator, variance):
        # With I = 2 the t reference has I - 2 = 0 degrees of freedom: one
        # `error:` line, exit 1 and nothing on stdout, whatever the variance,
        # not an interval and p-value of nan.
        path = tmp_path / "two.csv"
        path.write_text("cluster_id,period,sequence,outcome\n"
                        "a,0,0,1.0\na,0,0,1.5\na,1,0,2.0\na,1,0,2.2\n"
                        "b,0,1,0.5\nb,0,1,0.9\nb,1,1,3.0\nb,1,1,3.3\n")
        rc = main(["fit", str(path), "--estimator", estimator,
                   "--variance", variance])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == ("error: t inference has I - 2 degrees of freedom and "
                       "needs at least 3 clusters, got 2\n")

    @pytest.mark.parametrize("level", ["1.5", "0", "nan"])
    def test_fit_level_checked_before_the_fit(self, tmp_path, capsys,
                                              monkeypatch, level):
        # A level outside (0, 1) is one `error:` line and exit 1, before
        # the trial is read or fitted, with nothing on stdout.
        import pbcrt.cli

        def unread(path):
            raise AssertionError("the trial was read")

        monkeypatch.setattr(pbcrt.cli, "parse_trial_csv", unread)
        rc = main(["fit", str(tmp_path / "t.csv"), "--estimator", "neme",
                   "--variance", "both", "--level", level])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == f"error: --level must lie in (0, 1), got {float(level)!r}\n"

    def test_simulate_negative_seed_override(self, tmp_path, capsys):
        # --seed replaces the config's seed after its checks; the
        # scenario's own check names the field, not numpy.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_clusters": 4, "mixture": [[1.0, 5, 0.3]],
                                   "vc": {"sigma_w2": 1.0}, "reps": 1}))
        rc = main(["simulate", str(cfg), "--seed", "-1", "--csv",
                   str(tmp_path / "s.csv"), "--json", str(tmp_path / "s.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: master_seed must be non-negative, got -1\n")
        assert not (tmp_path / "s.csv").exists()

    def test_fit_estimation_error_exit_code(self, tmp_path, capsys):
        # Weighted mixed fit on unequal cell sizes cannot be computed.
        t = from_cell_means([
            ("a", 1, 2, 3, 1.0, 2.0), ("b", 0, 2, 2, 1.0, 1.5),
            ("c", 1, 2, 2, 1.0, 2.1), ("d", 0, 3, 2, 0.9, 1.4)])
        path = tmp_path / "t.csv"
        emit_trial_csv(t, path)
        rc = main(["fit", str(path), "--estimator", "emew"])
        assert rc == 2
        assert "estimation error" in capsys.readouterr().err

    def test_simulate_unknown_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_clusters": 4, "mixture": [[1.0, 5, 0.3]],
                                   "vc": {"sigma_w2": 1.0}, "rep": 3}))
        rc = main(["simulate", str(cfg), "--csv", str(tmp_path / "s.csv"),
                   "--json", str(tmp_path / "s.json")])
        assert rc == 1
        assert "unknown scenario keys: rep" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("change, message", [
        ({"reps": 1.5}, "reps must be an integer, got 1.5"),
        ({"n_clusters": 10.0}, "n_clusters must be an integer, got 10.0"),
        ({"n_clusters": "10"}, "n_clusters must be an integer, got '10'"),
        ({"master_seed": True}, "master_seed must be an integer, got True"),
        ({"jackknife": "no"}, "jackknife must be true or false, got 'no'"),
        ({"vc": 5}, "vc must be an object of finite numbers, got 5"),
        ({"mu": float("nan")}, "mu must be a finite number, got nan"),
        ({"mixture": [[1.0, 5]]},
         "mixture must be a list of [p, K, delta] rows, got [[1.0, 5]]"),
        ({"fixed_sizes": True, "mixture": [[1.0, 20.5, 0.3]]},
         "cluster-period sizes must be whole numbers, got 20.5"),
        ({"n_clusters": 10**20},
         "n_clusters must be below 2**63, got 100000000000000000000"),
        ({"reps": 10**20}, "reps must be below 2**63, got 100000000000000000000"),
        ({"master_seed": -1}, "master_seed must be non-negative, got -1"),
        ({"mixture": [[0.5, 5, 0.2], ["0.5", "20", 0.2]]},
         "mixture row 1 must be [p, K, delta] or [p, [k0, k1], delta] of "
         "finite numbers, got ['0.5', '20', 0.2]"),
        ({"mixture": [[0.5, True, 0.2], [0.5, 5, 0.2]]},
         "mixture row 0 must be [p, K, delta] or [p, [k0, k1], delta] of "
         "finite numbers, got [0.5, True, 0.2]"),
        ({"mixture": [[0.5, [20, "20"], 0.2], [0.5, 5, 0.2]]},
         "mixture row 0 must be [p, K, delta] or [p, [k0, k1], delta] of "
         "finite numbers, got [0.5, [20, '20'], 0.2]"),
    ])
    def test_simulate_typed_json(self, tmp_path, capsys, change, message):
        # A value of the wrong JSON type is one `error:` line naming the
        # key and the type, not a traceback or a silent reading.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_clusters": 4, "mixture": [[1.0, 5, 0.3]],
                                   "vc": {"sigma_w2": 1.0}, "reps": 1, **change}))
        rc = main(["simulate", str(cfg), "--csv", str(tmp_path / "s.csv"),
                   "--json", str(tmp_path / "s.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {cfg}: bad scenario config: {message}\n"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("size, records", [(1e20, 8 * 10**20), (1e9, 8 * 10**9)])
    def test_simulate_huge_sizes_refused(self, tmp_path, capsys, size, records):
        # Size means that no replicate could hold are one `error:` line
        # naming the mixture, not a TypeError or MemoryError traceback.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_clusters": 4, "mixture": [[1.0, size, 0.3]],
                                   "vc": {"sigma_w2": 1.0}, "reps": 1,
                                   "estimators": ["iee"]}))
        rc = main(["simulate", str(cfg), "--csv", str(tmp_path / "s.csv"),
                   "--json", str(tmp_path / "s.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: bad scenario config: mixture: 4 clusters at its "
            f"largest size mean expect {records} records a replicate, over "
            "10000000\n")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("drop, vc, message", [
        ("n_clusters", {"sigma_w2": 1.0}, "missing scenario keys: n_clusters"),
        ("vc", None, "missing scenario keys: vc.sigma_w2"),
        (None, {}, "missing scenario keys: vc.sigma_w2"),
    ])
    def test_simulate_missing_keys(self, tmp_path, capsys, drop, vc, message):
        # A scenario without a required key names it.
        doc = {"n_clusters": 4, "mixture": [[1.0, 5, 0.3]], "vc": vc, "reps": 1}
        doc.pop(drop, None)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["simulate", str(cfg), "--csv", str(tmp_path / "s.csv"),
                   "--json", str(tmp_path / "s.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: bad scenario config: {message}\n")

    def test_simulate_byte_identical(self, tmp_path, capsys):
        doc = {"n_clusters": 6, "mixture": [[1.0, 5, 0.3]],
               "vc": {"sigma_w2": 1.0, "tau_alpha2": 0.05},
               "reps": 2, "master_seed": 9, "estimators": ["iee", "few"],
               "jackknife": True}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        outs = []
        for tag in ("a", "b"):
            c = tmp_path / f"{tag}.csv"
            j = tmp_path / f"{tag}.json"
            assert main(["simulate", str(cfg), "--csv", str(c),
                         "--json", str(j)]) == 0
            outs.append((c.read_bytes(), j.read_bytes()))
        assert outs[0] == outs[1]

import csv
import json

import numpy as np
import pytest

from pbcrt import (
    EstimatorKind,
    ObservedTrial,
    PopulationMixture,
    SimScenario,
    TrialValidationError,
    VarianceComponents,
    emit_trial_csv,
    generate_trial,
    load_scenario_json,
    load_size_table,
    parse_trial_csv,
    size_table_skeleton_trial,
)
from pbcrt.cli import main


def small_trial():
    return ObservedTrial.from_cell_means([
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
        assert t2.n_clusters == t.n_clusters
        assert np.allclose(t2.outcomes, t.outcomes)
        a, b = t.cells, t2.cells
        for name in ("ids", "sequence", "k0", "k1"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert b.mean1 + b.origin == pytest.approx(a.mean1 + a.origin, abs=1e-12)

    def test_minimal_four_row_file(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_trial_csv(small_trial(), path)
        t = parse_trial_csv(path)
        assert t.n_obs == 4

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
        t = size_table_skeleton_trial()
        assert t.n_clusters == 28
        table = {cid: (k0, k1) for cid, _, k0, k1 in load_size_table()}
        c = t.cells
        for cid, k0, k1 in zip(c.ids, c.k0, c.k1):
            assert (k0, k1) == table[cid]
        assert not t.equal_period_sizes


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
                    lambda *a, **kw: (reml(*a, **kw)[0], False))
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

    def test_fit_estimation_error_exit_code(self, tmp_path, capsys):
        # Weighted mixed fit on unequal cell sizes cannot be computed.
        t = ObservedTrial.from_cell_means([
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

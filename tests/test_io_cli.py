import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divfrontier
from divfrontier import (
    EXCLUSIVE,
    Alpha,
    GaussianParams,
    Histogram,
    ParseError,
    distribution_to_json,
    frontier,
    load_distribution,
    load_pipeline_config,
    load_samples_csv,
    prd_from_infinity_frontier,
    read_pairs_csv,
    write_frontier_csv,
    write_json,
    write_prd_csv,
)
from divfrontier.cli import main


def write(path, text):
    path.write_text(text)
    return str(path)


class TestDistributionJson:
    def test_histogram_round_trip(self, tmp_path):
        h = Histogram([0.2, 0.3, 0.5])
        path = tmp_path / "h.json"
        write_json(distribution_to_json(h), path)
        back = load_distribution(path)
        np.testing.assert_allclose(back.probs, h.probs, atol=1e-15)

    def test_gaussian_round_trip(self, tmp_path):
        g = GaussianParams([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
        path = tmp_path / "g.json"
        write_json(distribution_to_json(g), path)
        back = load_distribution(path)
        np.testing.assert_allclose(back.mean, g.mean, atol=1e-15)
        np.testing.assert_allclose(back.cov, g.cov, atol=1e-15)

    def test_malformed_json_reports_line(self, tmp_path):
        path = write(tmp_path / "bad.json", '{\n "type": "histogram",\n "probs": [1, }\n')
        with pytest.raises(ParseError) as exc:
            load_distribution(path)
        assert exc.value.line == 3

    def test_missing_key(self, tmp_path):
        path = write(tmp_path / "bad.json", '{"type": "gaussian", "mean": [0.0]}')
        with pytest.raises(ParseError):
            load_distribution(path)

    def test_unknown_type(self, tmp_path):
        path = write(tmp_path / "bad.json", '{"type": "pareto"}')
        with pytest.raises(ParseError):
            load_distribution(path)


class TestSamplesCsv:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path / "s.csv", "0.5,1.5\n-1.0,2.0\n")
        x = load_samples_csv(path)
        np.testing.assert_array_equal(x, [[0.5, 1.5], [-1.0, 2.0]])

    def test_non_numeric_reports_line(self, tmp_path):
        path = write(tmp_path / "s.csv", "1.0,2.0\n1.0,abc\n")
        with pytest.raises(ParseError) as exc:
            load_samples_csv(path)
        assert exc.value.line == 2

    def test_ragged_rows_report_line(self, tmp_path):
        path = write(tmp_path / "s.csv", "1.0,2.0\n1.0\n")
        with pytest.raises(ParseError) as exc:
            load_samples_csv(path)
        assert exc.value.line == 2

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "s.csv", "")
        with pytest.raises(ParseError):
            load_samples_csv(path)


class TestCurveCsv:
    def test_frontier_round_trip(self, tmp_path):
        p = Histogram([0.5, 0.5])
        q = Histogram([0.25, 0.75])
        curve = frontier(p, q, Alpha.finite(2), EXCLUSIVE, 21)
        path = tmp_path / "f.csv"
        write_frontier_csv(curve, path)
        rows = read_pairs_csv(path)
        assert rows[0] == (0.0, curve.points[0][1], curve.points[0][2])
        lams = [r[0] for r in rows]
        assert lams == sorted(lams)
        assert path.read_text().splitlines()[0] == "lambda,loss_recall,loss_precision"

    def test_flip_lambda(self, tmp_path):
        p = Histogram([0.5, 0.5])
        q = Histogram([0.25, 0.75])
        curve = frontier(p, q, Alpha.finite(2), EXCLUSIVE, 11)
        plain = tmp_path / "a.csv"
        flipped = tmp_path / "b.csv"
        write_frontier_csv(curve, plain)
        write_frontier_csv(curve, flipped, flip_lambda=True)
        r1 = read_pairs_csv(plain)
        r2 = read_pairs_csv(flipped)
        assert {(round(1 - lam, 12), x, y) for lam, x, y in r1} == {
            (round(lam, 12), x, y) for lam, x, y in r2
        }

    def test_prd_round_trip(self, tmp_path):
        p = Histogram([0.5, 0.5])
        q = Histogram([0.25, 0.75])
        prd = prd_from_infinity_frontier(frontier(p, q, Alpha.infinity(), EXCLUSIVE, 51))
        path = tmp_path / "prd.csv"
        write_prd_csv(prd, path)
        rows = read_pairs_csv(path)
        recalls = [r[0] for r in rows]
        assert recalls == sorted(recalls)
        assert path.read_text().splitlines()[0] == "recall,precision"
        assert set(rows) == {(rec, prec) for prec, rec in prd.points}


class TestJsonInf:
    def test_inf_serialized_as_string(self, tmp_path):
        path = tmp_path / "x.json"
        write_json({"value": float("inf"), "nested": [1.0, float("inf")]}, path)
        raw = json.loads(path.read_text())
        assert raw["value"] == "inf"
        assert raw["nested"] == [1.0, "inf"]

    def test_histogram_spec_accepts_inf_rejection(self, tmp_path):
        # "inf" decodes to a float, which Histogram then rejects as nonfinite
        path = write(tmp_path / "h.json", '{"type": "histogram", "probs": ["inf", 1.0]}')
        with pytest.raises(Exception):
            load_distribution(path)


class TestPipelineConfigJson:
    def test_defaults_and_overrides(self, tmp_path):
        path = write(tmp_path / "c.json", '{"k_clusters": 7, "alphas": ["2", "inf"]}')
        cfg = load_pipeline_config(path)
        assert cfg.k_clusters == 7
        assert [str(a) for a in cfg.alphas] == ["2.0", "inf"]
        assert cfg.knn_k == 3 and cfg.seed == 0

    def test_bad_value(self, tmp_path):
        path = write(tmp_path / "c.json", '{"k_clusters": "lots"}')
        with pytest.raises(ParseError):
            load_pipeline_config(path)


@pytest.fixture
def hist_specs(tmp_path):
    p = write(tmp_path / "p.json", '{"type": "histogram", "probs": [0.5, 0.5]}')
    q = write(tmp_path / "q.json", '{"type": "histogram", "probs": [0.25, 0.75]}')
    return p, q


@pytest.fixture
def sample_csvs(tmp_path):
    rng = np.random.default_rng(0)
    xp = rng.normal(size=(120, 2))
    xq = rng.normal(size=(120, 2)) + 0.5
    p = tmp_path / "sp.csv"
    q = tmp_path / "sq.csv"
    np.savetxt(p, xp, delimiter=",")
    np.savetxt(q, xq, delimiter=",")
    return str(p), str(q)


class TestCli:
    def test_fit(self, tmp_path, sample_csvs):
        sp, _ = sample_csvs
        out = tmp_path / "g.json"
        assert main(["fit", "--samples", sp, "--output", str(out)]) == 0
        g = load_distribution(out)
        assert isinstance(g, GaussianParams) and g.dim == 2
        manifest = json.loads((tmp_path / "g.json.manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["config"]["ridge"] == 1e-6

    def test_frontier_histograms(self, tmp_path, hist_specs):
        p, q = hist_specs
        out = tmp_path / "f.csv"
        code = main(
            ["frontier", "--p", p, "--q", q, "--alpha", "2", "--grid-size", "21", "--output", str(out)]
        )
        assert code == 0
        rows = read_pairs_csv(out)
        assert len(rows) == 21
        assert rows[0][0] == 0.0 and rows[-1][0] == 1.0

    def test_frontier_multi_alpha_suffixes(self, tmp_path, hist_specs):
        p, q = hist_specs
        out = tmp_path / "f.csv"
        code = main(
            [
                "frontier", "--p", p, "--q", q,
                "--alpha", "1", "--alpha", "inf",
                "--grid-size", "21", "--output", str(out),
            ]
        )
        assert code == 0
        assert (tmp_path / "f_alpha1.csv").exists()
        assert (tmp_path / "f_alphainf.csv").exists()
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        assert manifest["config"]["alphas"] == ["1", "inf"]

    def test_frontier_gaussian_kl(self, tmp_path, sample_csvs):
        sp, sq = sample_csvs
        out = tmp_path / "f.csv"
        code = main(["frontier", "--p", sp, "--q", sq, "--alpha", "1", "--output", str(out)])
        assert code == 0
        rows = read_pairs_csv(out)
        assert len(rows) == 201
        # lambda ascending with loss_recall rising from 0
        assert rows[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_frontier_gaussian_rejects_other_alpha(self, tmp_path, sample_csvs):
        sp, sq = sample_csvs
        out = tmp_path / "f.csv"
        assert main(["frontier", "--p", sp, "--q", sq, "--alpha", "2", "--output", str(out)]) == 1

    def test_prd_matches_exp_negated_frontier(self, tmp_path, hist_specs):
        p, q = hist_specs
        prd_out = tmp_path / "prd.csv"
        fr_out = tmp_path / "finf.csv"
        assert main(["prd", "--p", p, "--q", q, "--grid-size", "51", "--output", str(prd_out)]) == 0
        assert main(
            ["frontier", "--p", p, "--q", q, "--alpha", "inf", "--grid-size", "51", "--output", str(fr_out)]
        ) == 0
        prd_rows = set(read_pairs_csv(prd_out))
        image = set()
        for _, loss_recall, loss_precision in read_pairs_csv(fr_out):
            rec = np.exp(-loss_recall)
            prec = np.exp(-loss_precision)
            if rec == 0.0 or prec == 0.0:
                rec = prec = 0.0
            image.add((rec, prec))
        for row in prd_rows:
            assert any(abs(row[0] - r) <= 1e-9 and abs(row[1] - p_) <= 1e-9 for r, p_ in image)

    def test_endpoints_identical_samples(self, tmp_path, sample_csvs):
        sp, _ = sample_csvs
        out = tmp_path / "e.csv"
        assert main(["endpoints", "--p", sp, "--q", sp, "--output", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert header == "precision_loss,recall_loss"
        prec_loss, rec_loss = map(float, row.split(","))
        assert prec_loss == pytest.approx(0.0, abs=1e-12)
        assert rec_loss == pytest.approx(0.0, abs=1e-12)

    def test_knn(self, tmp_path, sample_csvs):
        sp, sq = sample_csvs
        out = tmp_path / "knn.json"
        assert main(["knn", "--p", sp, "--q", sq, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert 0.0 <= report["precision"] <= 1.0
        assert 0.0 <= report["recall"] <= 1.0
        assert report["k"] == 3

    def test_oracle_check(self, tmp_path, hist_specs):
        p, q = hist_specs
        out = tmp_path / "verdict.json"
        code = main(
            [
                "oracle-check", "--p", p, "--q", q, "--alpha", "2",
                "--m", "40", "--grid-size", "51", "--output", str(out),
            ]
        )
        assert code == 0
        verdict = json.loads(out.read_text())
        assert verdict["pass"] is True

    def test_pipeline(self, tmp_path, sample_csvs):
        sp, sq = sample_csvs
        outdir = tmp_path / "run"
        cfg = write(tmp_path / "cfg.json", '{"k_clusters": 5, "grid_size": 51}')
        code = main(["pipeline", "--p", sp, "--q", sq, "--config", cfg, "--output", str(outdir)])
        assert code == 0
        for name in ("kl_frontier.csv", "frontier_alpha1.csv", "frontier_alphainf.csv", "prd.csv", "report.json"):
            assert (outdir / name).exists(), name
        report = json.loads((outdir / "report.json").read_text())
        assert report["precision_loss"] > 0.0
        assert len(report["histogram_p"]) == 5

    def test_reruns_byte_identical(self, tmp_path, sample_csvs):
        sp, sq = sample_csvs
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        cfg = write(tmp_path / "cfg.json", '{"k_clusters": 5, "grid_size": 51}')
        assert main(["pipeline", "--p", sp, "--q", sq, "--config", cfg, "--output", str(out1)]) == 0
        assert main(["pipeline", "--p", sp, "--q", sq, "--config", cfg, "--output", str(out2)]) == 0
        for name in ("kl_frontier.csv", "prd.csv", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_exit_code_parse_error(self, tmp_path):
        bad = write(tmp_path / "bad.json", "{not json")
        out = tmp_path / "o.csv"
        assert main(["prd", "--p", bad, "--q", bad, "--output", str(out)]) == 2

    def test_exit_code_dimension_error(self, tmp_path):
        p = write(tmp_path / "p.json", '{"type": "histogram", "probs": [0.5, 0.5]}')
        q = write(tmp_path / "q.json", '{"type": "histogram", "probs": [0.2, 0.3, 0.5]}')
        out = tmp_path / "o.csv"
        assert main(["prd", "--p", p, "--q", q, "--output", str(out)]) == 3

    def test_exit_code_divergence_undefined(self, tmp_path, hist_specs, monkeypatch):
        # no built-in command can currently trigger this error from valid
        # inputs, so exercise the exit-code mapping directly
        from divfrontier import DivergenceUndefinedError
        from divfrontier import cli as cli_module

        def boom(args):
            raise DivergenceUndefinedError("boom")

        monkeypatch.setattr(cli_module, "_cmd_prd", boom)
        parser = cli_module.build_parser()
        p, q = hist_specs
        out = tmp_path / "o.csv"
        args = parser.parse_args(["prd", "--p", p, "--q", q, "--output", str(out)])
        args.func = boom
        monkeypatch.setattr(parser.__class__, "parse_args", lambda self, argv=None: args)
        monkeypatch.setattr(cli_module, "build_parser", lambda: parser)
        assert cli_module.main(["prd", "--p", p, "--q", q, "--output", str(out)]) == 4

    def test_missing_alpha_is_parameter_error(self, tmp_path, hist_specs):
        p, q = hist_specs
        out = tmp_path / "f.csv"
        assert main(["frontier", "--p", p, "--q", q, "--output", str(out)]) == 1


MALFORMED_INPUTS = {
    "missing-samples-csv": ("pipeline", "--p", "{d}/missing.csv", "--q", "{d}/ok.csv", "--output", "{d}/run"),
    "scalar-probs": ("prd", "--p", "{d}/scalar.json", "--q", "{d}/h.json", "--output", "{d}/prd.csv"),
    "ragged-cov": ("endpoints", "--p", "{d}/ragged.json", "--q", "{d}/ragged.json", "--output", "{d}/e.csv"),
    "config-list": (
        "pipeline", "--p", "{d}/ok.csv", "--q", "{d}/ok.csv", "--config", "{d}/list.json", "--output", "{d}/run",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2_without_traceback(tmp_path, case):
    write(tmp_path / "ok.csv", "0.0,1.0\n1.0,0.5\n2.0,2.0\n0.5,1.5\n3.0,0.0\n")
    write(tmp_path / "h.json", '{"type": "histogram", "probs": [0.5, 0.5]}')
    write(tmp_path / "scalar.json", '{"type": "histogram", "probs": 5}')
    write(tmp_path / "ragged.json", '{"type": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0]]}')
    write(tmp_path / "list.json", "[1, 2]")
    argv = [a.format(d=tmp_path) for a in MALFORMED_INPUTS[case]]
    env = dict(os.environ, PYTHONPATH=str(Path(divfrontier.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "divfrontier.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert str(tmp_path) in proc.stderr

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import divfrontier
from divfrontier import io as io_module
from divfrontier import (
    EXCLUSIVE,
    Alpha,
    GaussianParams,
    Histogram,
    ParseError,
    distribution_to_json,
    fit_gaussian,
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

    def test_full_precision_file_bit_equal_to_row_loop(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(200, 16)) * np.exp(rng.uniform(-30, 30, size=(200, 16)))
        x[0, :4] = [5e-324, -0.0, 1e308, -2.2250738585072014e-308]
        path = tmp_path / "s.csv"
        np.savetxt(path, x, delimiter=",", fmt="%.17g")
        want = io_module._read_samples_rows(path)
        assert want.view(np.int64).tolist() == x.view(np.int64).tolist()

        def no_fallback(path):
            raise AssertionError("the row loop should not run on a well-formed file")

        monkeypatch.setattr(io_module, "_read_samples_rows", no_fallback)
        got = load_samples_csv(path)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize(
        "text, want",
        [('"1",2\n3,"4"\n', [[1.0, 2.0], [3.0, 4.0]]), ("1_0,2\n", [[10.0, 2.0]])],
        ids=["quoted", "underscore"],
    )
    def test_row_loop_fallback_accepts(self, tmp_path, text, want):
        np.testing.assert_array_equal(load_samples_csv(write(tmp_path / "s.csv", text)), want)

    @pytest.mark.parametrize("text", ["", "\n\n\r\n"], ids=["empty", "blank-lines"])
    def test_no_rows(self, tmp_path, text):
        with pytest.raises(ParseError, match="no samples found"):
            load_samples_csv(write(tmp_path / "s.csv", text))

    @pytest.mark.parametrize("bad_line", ["   ", "\t", "# comment", "#1,2"])
    def test_whitespace_and_comment_lines_report_line(self, tmp_path, bad_line):
        path = write(tmp_path / "s.csv", f"1.0,2.0\n\n{bad_line}\n3.0,4.0\n")
        with pytest.raises(ParseError) as exc:
            load_samples_csv(path)
        assert exc.value.line == 3

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789,,.-+e_ \t\n\r#\"infaNI", max_size=24))
    def test_same_result_as_row_loop(self, text):
        # whatever the file, the loader returns what the row loop returns, or
        # raises the ParseError it raises
        def outcome(load, path):
            try:
                return load(path)
            except ParseError as exc:
                return str(exc)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_text(text, encoding="utf-8", newline="")
            got = outcome(load_samples_csv, path)
            want = outcome(io_module._read_samples_rows, path)
        if isinstance(want, str):
            assert isinstance(got, str) and got == want
        else:
            assert np.array_equal(got, want, equal_nan=True)


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

    def test_numpy_inf_serialized_as_string(self, tmp_path):
        path = tmp_path / "x.json"
        write_json({"array": np.array([1.0, np.inf]), "f32": np.float32(np.inf), "i64": np.int64(3)}, path)
        assert json.loads(path.read_text()) == {"array": [1.0, "inf"], "f32": "inf", "i64": 3}

    @pytest.mark.parametrize(
        "value",
        [-np.inf, np.nan, [1.0, -np.inf], np.array([np.nan]), np.float32(-np.inf)],
        ids=["-inf", "nan", "list-inf", "array-nan", "float32-inf"],
    )
    def test_values_without_a_json_literal_raise(self, tmp_path, value):
        # strict JSON has no -inf or NaN, and "inf" would lose the sign
        with pytest.raises(ValueError):
            write_json({"value": value}, tmp_path / "x.json")

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

    def test_fit_near_float_max_reloads(self, tmp_path, sample_csvs):
        # a ridge of 1.7e308 once symmetrised to an inf covariance that the spec reader refused
        out = tmp_path / "g.json"
        assert main(["fit", "--samples", sample_csvs[0], "--ridge", "1.7e308", "--output", str(out)]) == 0
        g = load_distribution(out)
        assert np.isfinite(g.cov).all() and np.diag(g.cov).tolist() == [1.7e308, 1.7e308]
        np.testing.assert_array_equal(g.cov, fit_gaussian(load_samples_csv(sample_csvs[0]), 1.7e308).cov)

    def test_frontier_manifest_records_ridge(self, tmp_path, sample_csvs):
        sp, sq = sample_csvs
        out = tmp_path / "f.csv"
        assert main(["frontier", "--p", sp, "--q", sq, "--alpha", "1", "--ridge", "0.1", "--output", str(out)]) == 0
        assert json.loads((tmp_path / "f.csv.manifest.json").read_text())["config"]["ridge"] == 0.1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_endpoints_near_float_max(self, tmp_path, sample_csvs):
        # Sigma_P + Sigma_Q overflowed in the whitening, which then refused the pair as singular
        g, out = tmp_path / "g.json", tmp_path / "e.csv"
        assert main(["fit", "--samples", sample_csvs[0], "--ridge", "1.7e308", "--output", str(g)]) == 0
        assert main(["endpoints", "--p", str(g), "--q", str(g), "--output", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "0.0,0.0"

    def test_endpoints_accept_ulp_asymmetry_at_large_scale(self, tmp_path):
        # one ulp of asymmetry at 5e7 is 7.5e-9, above an absolute 1e-10
        cov = [[1e8, 5e7], [50000000.00000001, 1e8]]
        p = write(tmp_path / "p.json", json.dumps({"type": "gaussian", "mean": [0.0, 0.0], "cov": cov}))
        q = write(tmp_path / "q.json", json.dumps({"type": "gaussian", "mean": [0.0, 0.0], "cov": [[1e8, 5e7], [5e7, 1e8]]}))
        out = tmp_path / "e.csv"
        assert main(["endpoints", "--p", p, "--q", q, "--output", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "0.0,0.0"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_endpoints_with_variances_beyond_float_range_of_each_other(self, tmp_path):
        # whitening underflowed 1e-300 / 1e300 and exited 1 as singular
        p = write(tmp_path / "p.json", json.dumps({"type": "gaussian", "mean": [0.0], "cov": [[1e-300]]}))
        q = write(tmp_path / "q.json", json.dumps({"type": "gaussian", "mean": [1.0], "cov": [[1e300]]}))
        out = tmp_path / "e.csv"
        assert main(["endpoints", "--p", p, "--q", q, "--output", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "inf,690.2755278982137"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("side", ["exclusive", "inclusive"])
    def test_frontier_with_variances_beyond_float_range_of_each_other(self, tmp_path, side):
        # whitening underflowed 1e-300 / 1e300 and exited 1 as singular
        p = write(tmp_path / "p.json", json.dumps({"type": "gaussian", "mean": [0.0], "cov": [[1e-300]]}))
        q = write(tmp_path / "q.json", json.dumps({"type": "gaussian", "mean": [1.0], "cov": [[1e300]]}))
        out = tmp_path / "f.csv"
        argv = ["frontier", "--p", p, "--q", q, "--alpha", "1", "--side", side, "--grid-size", "5", "--output", str(out)]
        assert main(argv) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 6 and "690.2755278982137" in rows[-1] + rows[1]

    @pytest.mark.parametrize("scale", [1.0, 1e8])
    def test_endpoints_refuse_an_asymmetric_covariance(self, tmp_path, scale):
        cov = (scale * np.array([[1.0, 0.5], [0.2, 1.0]])).tolist()
        p = write(tmp_path / "p.json", json.dumps({"type": "gaussian", "mean": [0.0, 0.0], "cov": cov}))
        out = tmp_path / "e.csv"
        assert main(["endpoints", "--p", p, "--q", p, "--output", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pipeline_ridge_near_float_max(self, tmp_path, sample_csvs):
        sp, sq = sample_csvs
        cfg = write(tmp_path / "cfg.json", '{"k_clusters": 5, "grid_size": 51, "ridge": 1e308}')
        assert main(["pipeline", "--p", sp, "--q", sq, "--config", cfg, "--output", str(tmp_path / "run")]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert 0.0 <= report["precision_loss"] < 1e-300 and 0.0 <= report["recall_loss"] < 1e-300

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", [["frontier", "--alpha", "2", "--alpha", "inf"], ["prd"]])
    def test_histogram_whose_total_overflows(self, tmp_path, command):
        # Histogram handled the overflowing sum, but warned "overflow encountered in reduce"
        p = write(tmp_path / "p.json", '{"type": "histogram", "probs": [1e308, 1e308, 1.0]}')
        q = write(tmp_path / "q.json", '{"type": "histogram", "probs": [0.25, 0.75, 0.5]}')
        assert main([command[0], "--p", p, "--q", q, *command[1:], "--output", str(tmp_path / "out.csv")]) == 0

    @pytest.mark.parametrize("ridge", ["NaN", "Infinity", "-Infinity"])
    def test_pipeline_config_ridge_outside_the_range_exits_1(self, tmp_path, sample_csvs, caplog, ridge):
        sp, sq = sample_csvs
        cfg = write(tmp_path / "cfg.json", f'{{"k_clusters": 5, "grid_size": 51, "ridge": {ridge}}}')
        out = tmp_path / "out"
        out.mkdir()
        assert main(["pipeline", "--p", sp, "--q", sq, "--config", cfg, "--output", str(out / "run")]) == 1
        assert "ridge must be finite and nonnegative" in caplog.text
        assert list(out.iterdir()) == []

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

    def test_a_failing_alpha_writes_no_file(self, tmp_path, sample_csvs):
        # the KL frontier at alpha=1 succeeds, alpha=2 fails: neither is written
        sp, sq = sample_csvs
        out = tmp_path / "out"
        out.mkdir()
        argv = ["frontier", "--p", sp, "--q", sq, "--alpha", "1", "--alpha", "2", "--output", str(out / "f.csv")]
        assert main(argv) == 1
        assert list(out.iterdir()) == []

    def test_oracle_check_beyond_the_simplex_cap_exits_1(self, tmp_path, caplog):
        # 10 bins at the default m = 60 would be C(69, 9) ~ 5.7e10 grid points
        spec = write(tmp_path / "h.json", json.dumps({"type": "histogram", "probs": [0.1] * 10}))
        out = tmp_path / "v.json"
        assert main(["oracle-check", "--p", spec, "--q", spec, "--alpha", "2", "--output", str(out)]) == 1
        assert "exceeds 2000000 entries" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("ridge", ["nan", "-inf", "inf", "-1"])
    @pytest.mark.parametrize("command", ["endpoints", "frontier"])
    def test_ridge_junk_exits_1_without_a_file_when_no_csv_is_fitted(self, tmp_path, command, ridge):
        # --ridge reaches no fit here, yet it goes into the endpoints manifest
        spec = write(tmp_path / "g.json", json.dumps({"type": "gaussian", "mean": [0.0], "cov": [[1.0]]}))
        out = tmp_path / "out"
        out.mkdir()
        alpha = ["--alpha", "1"] if command == "frontier" else []
        assert main([command, "--p", spec, "--q", spec, *alpha, f"--ridge={ridge}", "--output", str(out / "o.csv")]) == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command,q", [("endpoints", "bad.csv"), ("frontier", "bad.csv"), ("endpoints", "q.json")])
    def test_a_histogram_spec_is_refused_where_a_gaussian_is_needed(self, tmp_path, hist_specs, caplog, command, q):
        # beside a malformed CSV the spec is reported (exit 1), not the CSV (exit 2)
        write(tmp_path / "bad.csv", "1,2\nx,y\n")
        out = tmp_path / "o.csv"
        alpha = ["--alpha", "1"] if command == "frontier" else []
        assert main([command, "--p", hist_specs[0], "--q", str(tmp_path / q), *alpha, "--output", str(out)]) == 1
        assert f"{hist_specs[0]}: expected a gaussian spec" in caplog.text
        assert not out.exists()


# pipeline configs whose fields have the wrong JSON type or an unparseable value
BAD_CONFIGS = {
    "grid-size-fraction": '{"grid_size": 3.7}',
    "seed-string": '{"seed": "7"}',
    "k-clusters-bool": '{"k_clusters": true}',
    "knn-k-bool": '{"knn_k": true}',
    "grid-size-bool": '{"grid_size": true}',
    "seed-bool": '{"seed": true}',
    "seed-negative": '{"seed": -1}',
    "alphas-string": '{"alphas": "inf"}',
    "alphas-unparseable": '{"alphas": ["abc"]}',
}

# distribution specs whose fields have the wrong JSON type, with the command that reads them
BAD_SPECS = {
    "cov-bool": ("endpoints", '{"type": "gaussian", "mean": [0], "cov": [[true]]}'),
    "cov-flat": ("endpoints", '{"type": "gaussian", "mean": [0, 0], "cov": [1, 0, 0, 1]}'),
    "cov-row-object": ("endpoints", '{"type": "gaussian", "mean": [0], "cov": [{"a": 1}]}'),
    "cov-string": ("endpoints", '{"type": "gaussian", "mean": [0], "cov": [["abc"]]}'),
    "mean-scalar": ("endpoints", '{"type": "gaussian", "mean": 0, "cov": [[1]]}'),
    "probs-bool": ("prd", '{"type": "histogram", "probs": [true, false]}'),
    "probs-object": ("prd", '{"type": "histogram", "probs": {"a": 1}}'),
    "probs-string": ("prd", '{"type": "histogram", "probs": ["abc", 0.5]}'),
    "probs-huge-int": ("prd", '{"type": "histogram", "probs": [1%s, 1]}' % ("0" * 400)),
}

MALFORMED_INPUTS = {
    "missing-samples-csv": ("pipeline", "--p", "{d}/missing.csv", "--q", "{d}/ok.csv", "--output", "{d}/run"),
    "scalar-probs": ("prd", "--p", "{d}/scalar.json", "--q", "{d}/h.json", "--output", "{d}/prd.csv"),
    "ragged-cov": ("endpoints", "--p", "{d}/ragged.json", "--q", "{d}/ragged.json", "--output", "{d}/e.csv"),
    "config-list": (
        "pipeline", "--p", "{d}/ok.csv", "--q", "{d}/ok.csv", "--config", "{d}/list.json", "--output", "{d}/run",
    ),
    **{
        f"config-{name}": (
            "pipeline", "--p", "{d}/ok.csv", "--q", "{d}/ok.csv", "--config", f"{{d}}/{name}.json", "--output", "{d}/run",
        )
        for name in BAD_CONFIGS
    },
    **{
        f"spec-{name}": (command, "--p", f"{{d}}/spec-{name}.json", "--q", f"{{d}}/spec-{name}.json", "--output", "{d}/out.csv")
        for name, (command, _) in BAD_SPECS.items()
    },
}


def run_python(*args, **env):
    """A fresh interpreter that imports this checkout's divfrontier."""
    env = dict(os.environ, PYTHONPATH=str(Path(divfrontier.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2_without_traceback(tmp_path, case):
    write(tmp_path / "ok.csv", "0.0,1.0\n1.0,0.5\n2.0,2.0\n0.5,1.5\n3.0,0.0\n")
    write(tmp_path / "h.json", '{"type": "histogram", "probs": [0.5, 0.5]}')
    write(tmp_path / "scalar.json", '{"type": "histogram", "probs": 5}')
    write(tmp_path / "ragged.json", '{"type": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0]]}')
    write(tmp_path / "list.json", "[1, 2]")
    for name, text in BAD_CONFIGS.items():
        write(tmp_path / f"{name}.json", text)
    for name, (_, text) in BAD_SPECS.items():
        write(tmp_path / f"spec-{name}.json", text)
    proc = run_python("-m", "divfrontier.cli", *(a.format(d=tmp_path) for a in MALFORMED_INPUTS[case]))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert str(tmp_path) in proc.stderr


# each entry point of grid_size, with a value past the cap: 2**32 points
# would allocate 32 GiB per lambda-grid array
OVERSIZED_GRIDS = {
    "frontier": ("frontier", "--p", "{d}/h.json", "--q", "{d}/h.json", "--alpha", "2", "--grid-size", "4294967296"),
    "frontier-kl": ("frontier", "--p", "{d}/ok.csv", "--q", "{d}/ok.csv", "--alpha", "1", "--grid-size", "4294967296"),
    "prd": ("prd", "--p", "{d}/h.json", "--q", "{d}/h.json", "--grid-size", "4294967296"),
    "oracle-check": ("oracle-check", "--p", "{d}/h.json", "--q", "{d}/h.json", "--alpha", "2", "--grid-size", "4294967296"),
    "pipeline": ("pipeline", "--p", "{d}/ok.csv", "--q", "{d}/ok.csv", "--config", "{d}/cfg.json"),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_GRIDS))
def test_grid_size_beyond_the_cap_exits_1(tmp_path, case, caplog):
    write(tmp_path / "ok.csv", "0.0,1.0\n1.0,0.5\n2.0,2.0\n0.5,1.5\n3.0,0.0\n")
    write(tmp_path / "h.json", '{"type": "histogram", "probs": [0.5, 0.5]}')
    write(tmp_path / "cfg.json", '{"k_clusters": 2, "knn_k": 1, "grid_size": 4294967296.0}')
    out = tmp_path / "out"
    assert main([a.format(d=tmp_path) for a in OVERSIZED_GRIDS[case]] + ["--output", str(out)]) == 1
    assert "grid_size must be in [2, " in caplog.text
    assert not out.exists()


# each command with an --output it cannot write: a missing parent directory,
# a directory where a file goes, or a file where the pipeline's directory goes
UNWRITABLE_OUTPUTS = {
    "fit": ("fit", "--samples", "{d}/ok.csv", "--output", "{d}/missing/g.json"),
    "frontier": ("frontier", "--p", "{d}/h.json", "--q", "{d}/h.json", "--alpha", "2", "--output", "{d}/missing/f.csv"),
    "frontier-dir": ("frontier", "--p", "{d}/h.json", "--q", "{d}/h.json", "--alpha", "2", "--output", "{d}"),
    "prd": ("prd", "--p", "{d}/h.json", "--q", "{d}/h.json", "--output", "{d}/missing/prd.csv"),
    "endpoints": ("endpoints", "--p", "{d}/ok.csv", "--q", "{d}/ok.csv", "--output", "{d}/missing/e.csv"),
    "knn": ("knn", "--p", "{d}/ok.csv", "--q", "{d}/ok.csv", "--output", "{d}/missing/knn.json"),
    "oracle-check": (
        "oracle-check", "--p", "{d}/h.json", "--q", "{d}/h.json", "--alpha", "2", "--m", "10", "--output", "{d}/missing/v.json",
    ),
    "pipeline-file": (
        "pipeline", "--p", "{d}/ok.csv", "--q", "{d}/ok.csv", "--config", "{d}/cfg.json", "--output", "{d}/ok.csv",
    ),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_exits_1_without_traceback(tmp_path, case):
    write(tmp_path / "ok.csv", "0.0,1.0\n1.0,0.5\n2.0,2.0\n0.5,1.5\n3.0,0.0\n")
    write(tmp_path / "h.json", '{"type": "histogram", "probs": [0.5, 0.5]}')
    write(tmp_path / "cfg.json", '{"k_clusters": 2, "knn_k": 1, "grid_size": 11}')
    proc = run_python("-m", "divfrontier.cli", *(a.format(d=tmp_path) for a in UNWRITABLE_OUTPUTS[case]))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "cannot write output" in proc.stderr and str(tmp_path) in proc.stderr


def test_integral_float_config_fields_accepted(tmp_path):
    path = write(tmp_path / "c.json", '{"grid_size": 1e2, "seed": 7.0, "ridge": 0, "alphas": [2, "inf"]}')
    cfg = load_pipeline_config(path)
    assert (cfg.grid_size, cfg.seed, cfg.ridge) == (100, 7, 0.0)
    assert type(cfg.grid_size) is int and type(cfg.seed) is int and type(cfg.ridge) is float
    assert [str(a) for a in cfg.alphas] == ["2.0", "inf"]


def test_import_loads_no_scipy():
    code = "import sys, divfrontier; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_gaussian_frontier_loads_no_scipy():
    code = (
        "import sys, numpy as np, divfrontier as df\n"
        "rng = np.random.default_rng(0)\n"
        "P, Q = (df.GaussianParams(rng.standard_normal(8), np.eye(8) + k * np.ones((8, 8))) for k in (0.1, 0.5))\n"
        "for side in (df.EXCLUSIVE, df.INCLUSIVE):\n"
        "    assert len(df.frontier_kl(P, Q, side).points) > 1\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# CLI fuzz: generated specs and configs through main, in process. Half the
# draws are well formed; the other half have one field replaced by junk.
# Junk for integer fields is negatives, integers and integral floats up to
# 2**63, bools, non-integral floats and strings. Valid sizes are capped
# (grid_size <= 64, m <= 20, 40-row sample CSVs) only to bound the run time.
BIG_INTEGERS = st.integers(65, 2**63)
INTEGER_JUNK = st.one_of(
    st.integers(-3, 64),
    BIG_INTEGERS,
    BIG_INTEGERS.map(float),
    st.booleans(),
    st.floats(-3.0, 64.0).filter(lambda x: not x.is_integer()),
    st.sampled_from(["7", "abc", ""]),
)
JUNK = st.one_of(
    INTEGER_JUNK,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e-300, 1e308, -1.0, "inf", None, [], [1], {"a": 1}]),
)
PROB = st.one_of(st.floats(0.0, 10.0), st.sampled_from([0, 1e-300, 3, 1e308]))
ALPHA_TEXT = st.sampled_from(["0", "1", "2", "0.5", "1e-3", "1e4", "inf", "-1", "abc"])


@st.composite
def with_junk(draw, valid, paths, junk=JUNK):
    """A valid value, or half the time one with the item at one of the
    given key paths replaced by junk."""
    value = draw(valid)
    if draw(st.booleans()):
        *parents, key = draw(st.sampled_from(paths))
        target = value
        for k in parents:
            target = target[k]
        target[key] = draw(junk)
    return value


def histogram_spec(n: int):
    valid = st.builds(lambda probs: {"type": "histogram", "probs": probs}, st.lists(PROB, min_size=n, max_size=n))
    return with_junk(valid, [("type",), ("probs",), ("probs", 0), ("probs", -1)])


@st.composite
def _gaussian(draw):
    d = draw(st.integers(1, 3))
    mean = draw(st.lists(st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300)), min_size=d, max_size=d))
    diagonal = draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d))
    off = draw(st.floats(-0.03, 0.03))
    cov = [[diagonal[i] if i == j else off for j in range(d)] for i in range(d)]
    return {"type": "gaussian", "mean": mean, "cov": cov}


def gaussian_spec():
    return with_junk(_gaussian(), [("mean",), ("mean", 0), ("cov",), ("cov", 0), ("cov", 0, 0), ("cov", -1, 0)])


def pipeline_config():
    valid = st.fixed_dictionaries(
        {},
        optional={
            "k_clusters": st.integers(2, 20),
            "knn_k": st.integers(1, 10),
            "grid_size": st.integers(2, 64),
            "seed": st.integers(0, 2**64),
            "ridge": st.sampled_from([0, 1e-6, 0.5]),
            "alphas": st.lists(ALPHA_TEXT, max_size=3),
        },
    )
    integers = with_junk(valid, [("k_clusters",), ("knn_k",), ("grid_size",), ("seed",)], INTEGER_JUNK)
    return with_junk(integers, [("ridge",), ("alphas",)])


def run_cli_twice(d: Path, argv: list[str]) -> None:
    """main must return an exit code in 0..4; a failing run writes no file,
    and a successful rerun rewrites every output file byte for byte."""
    out = d / "out"

    def run():
        code = main([a.format(d=d) for a in argv])
        assert code in range(5)
        event(f"exit {code}")
        return code, {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    out.mkdir()
    code, first = run()
    if code == 0:
        assert first and run() == (0, first)
    else:
        assert not first, f"exit {code} left {sorted(map(str, first))}"


@settings(max_examples=100, deadline=None)
@given(
    pq=st.integers(1, 4).flatmap(lambda n: st.tuples(histogram_spec(n), histogram_spec(n))),
    command=st.sampled_from(["prd", "frontier", "oracle-check"]),
    alphas=st.lists(ALPHA_TEXT, min_size=1, max_size=3),
    side=st.sampled_from(["exclusive", "inclusive"]),
    grid_size=st.one_of(st.integers(-2, 64), BIG_INTEGERS),
    m=st.one_of(st.integers(-2, 20), BIG_INTEGERS),
)
def test_fuzz_histogram_specs(pq, command, alphas, side, grid_size, m):
    p, q = pq
    argv = [command, "--p", "{d}/p.json", "--q", "{d}/q.json", "--grid-size", str(grid_size)]
    if command == "frontier":
        argv += [arg for alpha in alphas for arg in ("--alpha", alpha)]
    elif command == "oracle-check":
        argv += ["--alpha", alphas[0]]
    if command != "prd":
        argv += ["--side", side]
    if command == "oracle-check":
        argv += ["--m", str(m), "--output", "{d}/out/v.json"]
    else:
        argv += ["--output", "{d}/out/o.csv"]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "p.json").write_text(json.dumps(p))
        (d / "q.json").write_text(json.dumps(q))
        run_cli_twice(d, argv)


@settings(max_examples=60, deadline=None)
@given(
    p=gaussian_spec(),
    q=gaussian_spec(),
    command=st.sampled_from(["endpoints", "frontier"]),
    side=st.sampled_from(["exclusive", "inclusive"]),
    grid_size=st.one_of(st.integers(-2, 64), BIG_INTEGERS),
    ridge=st.one_of(st.sampled_from([0.0, 1e-6, -1.0, math.nan, math.inf, -math.inf]), st.floats()),
)
def test_fuzz_gaussian_specs(p, q, command, side, grid_size, ridge):
    # "--ridge=x" is one token, so argparse takes "-inf" as a value
    argv = [command, "--p", "{d}/p.json", "--q", "{d}/q.json", f"--ridge={ridge}", "--output", "{d}/out/o.csv"]
    if command == "frontier":
        argv += ["--alpha", "1", "--side", side, "--grid-size", str(grid_size)]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "p.json").write_text(json.dumps(p))
        (d / "q.json").write_text(json.dumps(q))
        run_cli_twice(d, argv)


FUZZ_SAMPLES = np.random.default_rng(5).normal(size=(2, 40, 2)) + [[[0.0, 0.0]], [[0.5, 0.0]]]


@settings(max_examples=40, deadline=None)
@given(config=pipeline_config())
def test_fuzz_pipeline_configs(config):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, x in zip(("sp", "sq"), FUZZ_SAMPLES):
            np.savetxt(d / f"{name}.csv", x, delimiter=",")
        (d / "cfg.json").write_text(json.dumps(config))
        argv = ["pipeline", "--p", "{d}/sp.csv", "--q", "{d}/sq.csv", "--config", "{d}/cfg.json", "--output", "{d}/out/run"]
        run_cli_twice(d, argv)

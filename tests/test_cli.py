import json
import math
import re

import numpy as np
import pytest

import hiermix as hm
import hiermix.cli as cli
import hiermix.optim as optim
from hiermix.cli import main
from hiermix.data import load_csv
from hiermix.dsl import parse_model_spec
from oracles import adaptive_exact_counts, record_evaluator_calls


@pytest.fixture
def frailty_csv(tmp_path):
    rng = np.random.default_rng(21)
    g = 25
    b = rng.normal(0, 0.6, g)
    lines = ["id,y,d,trt"]
    for i in range(g):
        trt = float(i % 2)
        for _ in range(3):
            t = rng.exponential() / (0.4 * np.exp(0.3 * trt + b[i]))
            y = min(t, 4.0)
            d = 1 if t < 4.0 else 0
            lines.append(f"{i + 1},{y:.10g},{d},{trt:g}")
    path = tmp_path / "frailty.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


SPEC = "(y trt M1[id], family(exponential, failure(d)))"
# the same model evaluated row by row, with finite-difference derivatives
TWIN_SPEC = "(y trt one#M1[id], family(exponential, failure(d)))"


def _with_one(path):
    """A copy of a CSV file with a column ``one`` of ones."""
    lines = path.read_text().splitlines()
    twin = path.with_name(f"one_{path.name}")
    twin.write_text("\n".join([lines[0] + ",one"] + [line + ",1" for line in lines[1:]]) + "\n")
    return twin


class TestFit:
    def test_fit_writes_document(self, frailty_csv, tmp_path, capsys):
        out = tmp_path / "res.txt"
        code = main(["fit", "--spec", SPEC, "--data", str(frailty_csv), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "estimates:" in text and "loglik:" in text and "sd(M1)" in text
        assert "converged: true" in text

    def test_fit_csv_format(self, frailty_csv, tmp_path):
        out = tmp_path / "est.csv"
        code = main(["fit", "--spec", SPEC, "--data", str(frailty_csv), "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "name,estimate,se,lo,hi,scale"
        names = [l.split(",")[0] for l in lines[1:]]
        assert "trt" in names and "sd(M1)" in names

    def test_spec_file_text_and_json(self, frailty_csv, tmp_path, capsys):
        # a spec file holds the specification text; a JSON document of the
        # same model is input the parser rejects
        sf = tmp_path / "model.txt"
        sf.write_text(SPEC + "\n")
        assert main(["fit", "--spec-file", str(sf), "--data", str(frailty_csv), "--out", str(tmp_path / "a")]) == 0
        jf = tmp_path / "model.json"
        family = {"name": "exponential", "failure": "d"}
        components = [{"elements": [{"covariate": "trt"}]}, {"elements": [{"latent": "M1", "path": ["id"]}]}]
        jf.write_text(json.dumps({"outcomes": [{"response": "y", "family": family, "components": components}]}))
        out = tmp_path / "b"
        assert main(["fit", "--spec-file", str(jf), "--data", str(frailty_csv), "--out", str(out)]) == 3
        assert "outside an outcome group (at position 0)" in capsys.readouterr().err
        assert not out.exists()

    def test_document_spec_line_refits_identically(self, frailty_csv, tmp_path):
        # the model: spec line keeps every digit of explicit knots, so
        # fitting it again gives the same document
        spec = "(y trt M1[id], family(rp, failure(d) knots(-3.14159265 0.123456789 1.38629436)))"
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        argv = ["fit", "--data", str(frailty_csv), "--points", "5", "--quiet", "--out"]
        assert main(argv + [str(first), "--spec", spec]) == 0
        line = next(line for line in first.read_text().splitlines() if line.startswith("  spec: "))
        assert main(argv + [str(second), "--spec", line.removeprefix("  spec: ")]) == 0
        assert second.read_bytes() == first.read_bytes()

    def test_document_spec_states_the_covariance_flag(self, frailty_csv, tmp_path):
        # the document's spec is the model fitted, --covariance included
        out = tmp_path / "doc.txt"
        spec = "(y trt trt#M2[id] M1[id], family(gaussian))"
        argv = ["fit", "--spec", spec, "--data", str(frailty_csv), "--covariance", "unstructured"]
        main(argv + ["--points", "3", "--max-iter", "0", "--quiet", "--out", str(out)])
        text = out.read_text()
        assert "chol(M1,M2)" in text
        line = next(line for line in text.splitlines() if line.startswith("  spec: "))
        assert parse_model_spec(line.removeprefix("  spec: ")).covariance == "unstructured"

    def test_syntax_error_exit_code(self, frailty_csv, capsys):
        code = main(["fit", "--spec", "(y trt, family(nonsense))", "--data", str(frailty_csv)])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_missing_column_exit_code(self, frailty_csv, capsys):
        code = main(["fit", "--spec", "(y wat M1[id], family(exponential, failure(d)))", "--data", str(frailty_csv)])
        assert code == 3

    def test_determinism_byte_identical(self, frailty_csv, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            code = main(
                ["fit", "--spec", SPEC, "--data", str(frailty_csv), "--out", str(out), "--points", "5"]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--points", "5"],
            ["--method", "qmc", "--draws", "60"],
            ["--method", "qmc", "--redistribution", "t", "--df", "5", "--draws", "60"],
            ["--points", "5", "--spec", TWIN_SPEC],
        ],
        ids=["aghq", "qmc", "qmc_t", "aghq_rows"],
    )
    def test_thread_count_byte_identical(self, frailty_csv, tmp_path, flags):
        # the per-cluster model takes exact derivatives and no thread pool;
        # on its row twin threads share out the derivative probes
        docs = []
        data = _with_one(frailty_csv)
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}.txt"
            argv = ["fit", "--spec", SPEC, "--data", str(data), "--out", str(out), "--threads", threads]
            assert main(argv + flags) == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]

    def test_nested_aghq_document_invariant_to_row_order_and_ids(self, tmp_path, monkeypatch):
        # each refresh of the adaptation starts from the previous one, so a
        # refresh depends on the fit's path; the path must not depend on
        # the order of the rows or on how trials and patients are labelled.
        # The fit takes exact derivatives, whose outer sums add child cells
        # in order of value, and no thread pool: nor may the thread count
        rng = np.random.default_rng(8)
        trials, patients, reps = 4, 3, 3
        trial = np.repeat(np.arange(trials) + 1.0, patients * reps)
        pat = np.repeat(np.arange(trials * patients) + 1.0, reps)
        x = rng.normal(size=trial.size)
        u, v = rng.normal(0, 0.8, trials), rng.normal(0, 0.7, trials * patients)
        y = 1.0 + 0.5 * x + u[trial.astype(int) - 1] + v[pat.astype(int) - 1] + rng.normal(0, 0.6, x.size)
        columns = {"trial": trial, "pat": pat, "x": x, "y": y}
        perm = rng.permutation(y.size)
        relabel = {
            "trial": 100.0 + rng.permutation(trials)[trial.astype(int) - 1],
            "pat": 500.0 + rng.permutation(trials * patients)[pat.astype(int) - 1],
        }
        variants = {
            "original": (columns, "1"),
            "shuffled": ({name: col[perm] for name, col in columns.items()}, "1"),
            "relabelled": ({**columns, **relabel}, "1"),
            "two_threads": (columns, "2"),
        }
        spec = "(y x M1[trial] M2[trial>pat], family(gaussian))"
        calls = record_evaluator_calls(monkeypatch)
        fit = hm.fit_model(spec, columns, points=5)
        assert fit.message == "converged"
        counts = adaptive_exact_counts(calls, fit.trace)
        assert (fit.profile["derivative_passes"], fit.profile["likelihood_calls"]) == counts
        docs = []
        for name, (cols, threads) in variants.items():
            path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.txt"
            rows = [",".join(cols)] + [",".join(format(v, ".17g") for v in row) for row in zip(*cols.values())]
            path.write_text("\n".join(rows) + "\n")
            argv = ["fit", "--spec", spec, "--data", str(path), "--out", str(out), "--points", "5", "--quiet"]
            assert main(argv + ["--threads", threads]) == 0
            docs.append(out.read_bytes())
        assert docs[1] == docs[0]
        assert docs[2] == docs[0]
        assert docs[3] == docs[0]

    @pytest.mark.parametrize("flags", [["--points", "5"], ["--method", "qmc", "--redistribution", "t", "--df", "5"]])
    def test_per_cluster_document_invariant_to_row_order_and_ids(self, frailty_csv, tmp_path, flags):
        # the frailty outcome is summed per cluster, over each cluster's
        # rows in their canonical order; on QMC, whose passes take their
        # posterior moments from one node table, --threads changes no bit
        rows = frailty_csv.read_text().splitlines()
        header, body = rows[0], rows[1:]
        rng = np.random.default_rng(3)
        ids = rng.permutation(25) + 101
        variants = {
            "original": (body, "1"),
            "shuffled": ([body[i] for i in rng.permutation(len(body))], "1"),
            "relabelled": ([",".join([str(ids[int(r.split(",")[0]) - 1]), *r.split(",")[1:]]) for r in body], "1"),
        }
        if "qmc" in flags:
            variants["two_threads"] = (body, "2")
        docs = []
        for name, (lines, threads) in variants.items():
            path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.txt"
            path.write_text("\n".join([header, *lines]) + "\n")
            argv = ["fit", "--spec", SPEC, "--data", str(path), "--out", str(out), "--quiet", "--threads", threads]
            assert main(argv + flags) == 0
            docs.append(out.read_bytes())
        assert all(doc == docs[0] for doc in docs[1:])

    @pytest.mark.parametrize("flags", [["--points", "5"], ["--method", "qmc", "--draws", "60"]], ids=["aghq", "qmc"])
    def test_rp_document_invariant_to_row_order_ids_and_threads(self, frailty_csv, tmp_path, flags, monkeypatch):
        # a spline-baseline frailty fit takes exact derivative passes, with
        # the spline in each cluster's sums: its document depends neither
        # on the row order, nor on the cluster labels, nor on --threads
        spec = "(y trt M1[id], family(rp, failure(d) scale(h) df(3)))"
        calls = record_evaluator_calls(monkeypatch)
        fit = hm.fit_model(spec, load_csv(str(frailty_csv)), points=5)
        assert fit.message == "converged"
        counts = adaptive_exact_counts(calls, fit.trace)
        assert (fit.profile["derivative_passes"], fit.profile["likelihood_calls"]) == counts
        rows = frailty_csv.read_text().splitlines()
        header, body = rows[0], rows[1:]
        rng = np.random.default_rng(4)
        ids = rng.permutation(25) + 101
        variants = {
            "original": (body, "1"),
            "shuffled": ([body[i] for i in rng.permutation(len(body))], "1"),
            "relabelled": ([",".join([str(ids[int(r.split(",")[0]) - 1]), *r.split(",")[1:]]) for r in body], "1"),
            "two_threads": (body, "2"),
        }
        docs = []
        for name, (lines, threads) in variants.items():
            path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.txt"
            path.write_text("\n".join([header, *lines]) + "\n")
            argv = ["fit", "--spec", spec, "--data", str(path), "--out", str(out), "--quiet", "--threads", threads]
            assert main(argv + flags) == 0
            docs.append(out.read_bytes())
        assert docs[1] == docs[0]
        assert docs[2] == docs[0]
        assert docs[3] == docs[0]

    def test_per_level_flag_syntax(self, frailty_csv, tmp_path):
        code = main(
            ["fit", "--spec", SPEC, "--data", str(frailty_csv), "--points", "id=9", "--out", str(tmp_path / "o")]
        )
        assert code == 0

    def test_t_distribution_flags(self, frailty_csv, tmp_path):
        out = tmp_path / "t.txt"
        code = main(
            [
                "fit",
                "--spec",
                SPEC,
                "--data",
                str(frailty_csv),
                "--redistribution",
                "t",
                "--df",
                "3",
                "--draws",
                "512",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "t(3)" in out.read_text()


class TestSimulateCommand:
    def test_simulate_then_fit(self, tmp_path):
        cfg = {
            "spec": "(y trt M1[id], family(weibull, failure(d)))",
            "theta": {"trt": 0.5, "_cons": -1.0, "ln_gamma": 0.3, "ln_sd(M1)": -0.7},
            "levels": {"id": 150},
            "covariates": {"trt": {"dist": "bernoulli", "p": 0.5}},
            "outcomes": [{"censoring": 6.0, "records": 2}],
            "seed": 11,
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        out_csv = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_csv)]) == 0
        header = out_csv.read_text().splitlines()[0].split(",")
        assert set(header) >= {"id", "y", "d", "trt"}
        fit_out = tmp_path / "fit.txt"
        code = main(
            [
                "fit",
                "--spec",
                "(y trt M1[id], family(weibull, failure(d)))",
                "--data",
                str(out_csv),
                "--out",
                str(fit_out),
            ]
        )
        assert code == 0

    def test_simulate_determinism(self, tmp_path):
        cfg = {
            "spec": "(y M1[id], family(exponential, failure(d)))",
            "theta": {"_cons": -0.5, "ln_sd(M1)": -0.5},
            "levels": {"id": 30},
            "outcomes": [{"censoring": 3.0}],
            "seed": 2,
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(cfg_path), "--out", str(a)])
        main(["simulate", "--config", str(cfg_path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_ignored_setting_exits_3(self, tmp_path, capsys):
        # a level the specification does not have is refused, not ignored
        cfg = {
            "spec": "(y M1[id], family(exponential, failure(d)))",
            "theta": {"_cons": -0.5, "ln_sd(M1)": -0.5},
            "levels": {"id": 30, "clinic": 3},
            "outcomes": [{"censoring": 3.0}],
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "a.csv")]) == 3
        assert "levels the specification does not have: ['clinic']" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize(
        "cfg,message",
        [
            ({"theta": {"_cons": -0.5}, "levels": {"id": 30}}, "the configuration needs spec"),
            ({"spec": "(y M1[id], family(exponential, failure(d)))"}, "the configuration needs theta, levels"),
            (["(y M1[id], family(exponential, failure(d)))"], "the configuration must be a JSON object"),
            (
                {"spec": "(y M1[id], family(exponential, failure(d)))", "theta": {"xx": 1}, "levels": {"id": 30}},
                "no parameter named 'xx' (have: _cons, ln_sd(M1))",
            ),
            (
                {
                    "spec": "(y M1[id], family(exponential, failure(d)))",
                    "theta": {"_cons": -0.5, "ln_sd(M1)": -0.5},
                    "levels": {"id": 30},
                    "outcomes": "x",
                },
                "outcomes must be a list with one settings dict per outcome, got 'x'",
            ),
            (
                {
                    "spec": "(y M1[id], family(exponential, failure(d)))",
                    "theta": {"_cons": -0.5, "ln_sd(M1)": -0.5},
                    "levels": {"id": 30},
                    "outcomes": ["x"],
                },
                "outcomes must be a list with one settings dict per outcome, got ['x']",
            ),
        ],
        ids=["no_spec", "no_theta_or_levels", "not_an_object", "unknown_parameter", "outcomes_string", "outcome_string"],
    )
    def test_bad_config_exits_3(self, tmp_path, capsys, cfg, message):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "a.csv")]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()


class TestExitCodes:
    def test_non_convergence_exits_2(self, frailty_csv, tmp_path, capsys):
        code = main(
            [
                "fit",
                "--spec",
                SPEC,
                "--data",
                str(frailty_csv),
                "--max-iter",
                "1",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "check"])
    def test_unverified_optimum_exits_2(self, frailty_csv, tmp_path, capsys, monkeypatch, command):
        # the final Hessian, probed along the last Newton Hessian's
        # eigenvectors, comes back positive definite; the row twin takes
        # finite differences, which the per-cluster model no longer does
        real = optim.fd_hessian

        def final_not_definite(objective, theta, f0=None, free=None, near=None, mapper=map):
            hess = real(objective, theta, f0, free, near, mapper)
            return hess if near is None else -hess

        monkeypatch.setattr(optim, "fd_hessian", final_not_definite)
        out = tmp_path / "o"
        data = _with_one(frailty_csv)
        code = main([command, "--spec", TWIN_SPEC, "--data", str(data), "--points", "5", "--out", str(out)])
        assert code == 2
        assert "optimum not verified" in capsys.readouterr().err
        if command == "fit":
            text = out.read_text()
            assert "converged: true" in text and "optimum_verified: false" in text

    def test_separated_bernoulli_exits_2(self, tmp_path, capsys):
        # 30 clusters x 4 rows with y = (x > 0)
        rng = np.random.default_rng(1)
        lines = ["id,y,x"]
        for i, x in enumerate(rng.normal(size=120)):
            lines.append(f"{i // 4 + 1},{int(x > 0)},{x:.10g}")
        path = tmp_path / "separated.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = main(["fit", "--spec", "(y x M1[id], family(bernoulli))", "--data", str(path), "--out", str(out)])
        assert code == 2
        assert "did not converge" in capsys.readouterr().err
        assert "not finite" not in out.read_text()

    def test_unregularizable_hessian_exits_2(self, tmp_path, capsys):
        # 30 clusters x 4 Weibull rows censored at 3.0, the covariate
        # multiplied by 1e6: the first finite-difference Newton Hessian
        # (of the row twin; the per-cluster model's is exact) has entries
        # near 1e183, which no Levenberg shift makes definite
        rng = np.random.default_rng(3)
        b = rng.normal(0, 0.6, 30)
        lines = ["id,t,d,x,one"]
        for i in range(30):
            for _ in range(4):
                x = rng.normal()
                t = (rng.exponential() / (0.4 * np.exp(0.5 * x + b[i]))) ** (1 / 1.2)
                lines.append(f"{i + 1},{min(t, 3.0):.10g},{int(t < 3.0)},{x * 1e6:.10g},1")
        path = tmp_path / "scaled.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        spec = "(t x one#M1[id], family(weibull, failure(d)))"
        code = main(["fit", "--spec", spec, "--data", str(path), "--out", str(out)])
        assert code == 2
        assert "did not converge" in capsys.readouterr().err
        text = out.read_text()
        assert "converged: false" in text
        assert "message: cannot regularize the Hessian to a definite matrix" in text
        # an information matrix that is not positive definite gives no
        # standard errors or intervals
        estimates = text.split("estimates:\n")[1].split("covariance:")[0].splitlines()
        assert len(estimates) == 4
        assert all(line.endswith(", ., ., .]") for line in estimates)

    @pytest.mark.parametrize(
        "flags,name",
        [
            (["--method", "qmc", "--skip", "-20"], "skip"),
            (["--skip", "-20"], "skip"),
            (["--threads", "0"], "threads"),
            (["--max-iter", "-3"], "max_iter must be at least 0"),
            (["--points", "0"], "quadrature point"),
            (["--method", "qmc", "--points", "0"], "need at least one quadrature point"),
            (["--points", "1"], "adaptive quadrature needs at least 3 points"),
            (["--draws", "0", "--method", "qmc"], "draw"),
            # a setting that a quadrature level would not read, or that
            # names a level without latent effects, is refused, not ignored
            (["--draws", "0"], "need at least one draw"),
            (["--draws", "-3"], "need at least one draw"),
            (["--points", "id=5,typo=9"], "names levels without latent effects"),
            (["--draws", "typo=50", "--method", "qmc"], "names levels without latent effects"),
            # refused at compile, though this model reads no Gauss-Legendre rule
            (["--gl-points", "0"], "Gauss-Legendre rule needs at least one node"),
        ],
        ids=[
            "negative_skip",
            "negative_skip_aghq",
            "zero_threads",
            "negative_max_iter",
            "zero_points",
            "zero_points_qmc",
            "one_point_adaptive",
            "zero_draws_qmc",
            "zero_draws_aghq",
            "negative_draws_aghq",
            "points_for_unknown_level",
            "draws_for_unknown_level",
            "zero_gl_points",
        ],
    )
    def test_bad_setting_exits_3(self, frailty_csv, tmp_path, capsys, flags, name):
        out = tmp_path / "o"
        code = main(["fit", "--spec", SPEC, "--data", str(frailty_csv), "--out", str(out)] + flags)
        assert code == 3
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "family, bad, message",
        [
            ("bernoulli", 2.0, "bernoulli responses must not exceed 1"),
            ("binomial, k(3)", 4.0, "binomial responses must not exceed 3"),
            ("negbinomial", -1.0, "negbinomial responses must be non-negative integers"),
            ("poisson", 1.5, "poisson responses must be non-negative integers"),
            ("beta", 1.5, "beta responses must lie in [0, 1]"),
        ],
        ids=["bernoulli", "binomial", "negbinomial", "poisson", "beta"],
    )
    def test_bad_response_exits_3(self, tmp_path, capsys, family, bad, message):
        # refused when the model is compiled, by the library and the command line
        y = np.full(30, 0.5 if family == "beta" else 1.0)
        y[7] = bad
        cols = {"id": np.repeat(np.arange(10.0), 3), "x": np.linspace(-1.0, 1.0, 30), "y": y}
        spec = f"(y x M1[id], family({family}))"
        with pytest.raises(ValueError, match=re.escape(f"outcome 1 (y): {message}")):
            hm.fit_model(spec, cols)
        data, out = tmp_path / "bad.csv", tmp_path / "o"
        data.write_text("id,x,y\n" + "".join(f"{i:g},{x:.17g},{v:g}\n" for i, x, v in zip(*cols.values())))
        assert main(["fit", "--spec", spec, "--data", str(data), "--out", str(out)]) == 3
        assert f"outcome 1 (y): {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["fit", "--spec", SPEC, "--data", "d.csv", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
            (["fit", "--spec", SPEC, "--data", "d.csv", "--skip", "abc"], "argument --skip: invalid int value: 'abc'"),
            (["fit", "--spec", SPEC], "the following arguments are required: --data"),
            (["check", "--spec", SPEC, "--data", "d.csv", "--points2"], "argument --points2: expected one argument"),
            (["simulate", "--out", "a.csv"], "the following arguments are required: --config"),
            # --format is read by fit only
            (["check", "--spec", SPEC, "--data", "d.csv", "--format", "csv"], "unrecognized arguments: --format csv"),
        ],
        ids=["fit_unknown_flag", "fit_bad_int", "fit_missing_data", "check_missing_value", "simulate_missing_config",
             "check_format"],
    )
    def test_usage_error_exits_3(self, capsys, argv, message):
        # a usage error is an input error: not 2, the code of a fit that did
        # not converge, and a return from main, not SystemExit
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}\nusage: hiermix")

    def test_one_parser_serves_every_call(self, frailty_csv, tmp_path, capsys):
        # the parser is built once per process and a call leaves it as it
        # was: a usage error reads the same bytes before and after a fit,
        # and as from a parser built afresh
        argv = ["fit", "--spec", SPEC, "--data", "d.csv", "--bogus", "1"]
        assert main(argv) == 3
        before = capsys.readouterr().err
        assert main(["fit", "--spec", SPEC, "--data", str(frailty_csv), "--out", str(tmp_path / "a.txt"), "--quiet"]) == 0
        assert main(argv) == 3
        assert capsys.readouterr().err == before
        assert cli._parser() is cli._parser()
        with pytest.raises(cli._UsageError) as fresh:
            cli._parser.__wrapped__().parse_args(argv)
        assert before == f"error: {fresh.value}\n"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--help"])
        assert exc.value.code == 0
        assert "--format" in capsys.readouterr().out

    def test_all_censored_survival_exits_3(self, tmp_path, capsys):
        # 30 clusters x 4 Weibull rows, every one censored
        rng = np.random.default_rng(5)
        lines = ["id,y,d,trt"]
        for i in range(30):
            for _ in range(4):
                lines.append(f"{i + 1},{rng.uniform(0.5, 4.0):.6g},0,{i % 2}")
        path = tmp_path / "censored.csv"
        path.write_text("\n".join(lines) + "\n")
        spec = "(y trt M1[id], family(weibull, failure(d)))"
        code = main(["fit", "--spec", spec, "--data", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "no events" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def _weibull_rows() -> list[list[float]]:
    """(id, t, d, x) rows: 30 clusters x 3 Weibull times censored at 3.0."""
    rng = np.random.default_rng(3)
    b = rng.normal(0, 0.6, 30)
    rows = []
    for i in range(90):
        x = rng.normal()
        t = (rng.exponential() / (0.4 * np.exp(0.5 * x + b[i // 3]))) ** (1 / 1.2)
        rows.append([i // 3 + 1, min(t, 3.0), float(t < 3.0), x])
    return rows


def _column(j, f):
    """An edit of the rows that maps column j through f(row index, value)."""
    return lambda rows: [[*row[:j], f(i, row[j]), *row[j + 1 :]] for i, row in enumerate(rows)]


WEIBULL = "(t x M1[id], family(weibull, failure(d)))"
NOT_A_SPEC = "outside an outcome group (at position 0)"

# case: (edit of the _weibull_rows data, spec file text, exit code, a
# fragment of the error or the document, and any flags of the fit)
FAILURE_TABLE = {
    "as_simulated": (None, WEIBULL, 0, "converged: true"),
    "nan_covariate": (_column(3, lambda i, v: math.nan if i == 4 else v), WEIBULL, 3, "missing at data row 5"),
    "single_cluster": (_column(0, lambda i, v: 1), WEIBULL, 0, "converged: true"),
    "singleton_clusters": (_column(0, lambda i, v: i + 1), WEIBULL, 0, "converged: true"),
    "no_events": (_column(2, lambda i, v: 0.0), WEIBULL, 3, "no events"),
    # rescaled times move only _cons and the log-likelihood; the exact
    # information at the optimum is positive definite
    "times_x1e6": (_column(1, lambda i, v: v * 1e6), WEIBULL, 0, "converged: true"),
    "times_x1e-6": (_column(1, lambda i, v: v * 1e-6), WEIBULL, 0, "converged: true"),
    "separated_bernoulli": (
        lambda rows: [[r[0], r[1], float(r[3] > 0), r[3]] for r in rows],
        "(d x M1[id], family(bernoulli))",
        2,
        "did not converge",
    ),
    "json_unknown_family_key": (
        None,
        '{"outcomes": [{"response": "t", "family": {"name": "weibull", "failure": "d", "shape": 2}, "components": []}]}',
        3,
        NOT_A_SPEC,
    ),
    "json_no_outcomes": (None, '{"covariance": "unstructured"}', 3, NOT_A_SPEC),
    "json_empty": (None, "{}", 3, NOT_A_SPEC),
    "empty_ltrunc": (None, "(t x M1[id], family(weibull, failure(d) ltrunc()))", 3, "ltrunc() needs a name (at position 40)"),
    # integration settings that no level reads
    "draws_without_qmc": (None, WEIBULL, 3, "draws (--draws) is set, but no level integrates by quasi-Monte Carlo", "--draws", "100"),
    "draws_below_one_without_qmc": (None, WEIBULL, 3, "need at least one draw", "--draws", "0"),
    # one draw gives every cluster the same frailty, which _cons absorbs
    "one_qmc_draw": (None, WEIBULL, 3, "quasi-Monte Carlo needs at least 2 draws", "--method", "qmc", "--draws", "1"),
    "df_with_normal_quadrature": (None, WEIBULL, 3, "t_df (--df) is set, but no level has a t kernel", "--df", "5"),
    "df_with_normal_qmc": (None, WEIBULL, 3, "t_df (--df) is set, but no level has a t kernel", "--method", "qmc", "--df", "5"),
    "skip_without_qmc": (None, WEIBULL, 3, "skip (--skip) is set, but no level integrates by quasi-Monte Carlo", "--skip", "5"),
    "points_without_quadrature": (
        None, WEIBULL, 3, "points (--points) is set, but no level integrates by quadrature", "--method", "qmc", "--points", "9"
    ),
    "no_adaptive_without_quadrature": (
        None, WEIBULL, 3, "adaptive (--no-adaptive) is set, but no level integrates by quadrature", "--method", "qmc", "--no-adaptive"
    ),
    # count and binary responses all at a bound of their range: the
    # constant has no finite estimate
    "bernoulli_all_0": (_column(2, lambda i, v: 0.0), "(d x M1[id], family(bernoulli))", 3, "every response in 'd' is 0"),
    "bernoulli_all_1": (_column(2, lambda i, v: 1.0), "(d x M1[id], family(bernoulli))", 3, "every response in 'd' is 1"),
    "poisson_all_0": (_column(2, lambda i, v: 0.0), "(d x M1[id], family(poisson))", 3, "every response in 'd' is 0"),
    "negbinomial_all_0": (_column(2, lambda i, v: 0.0), "(d x M1[id], family(negbinomial))", 3, "every response in 'd' is 0"),
    "binomial_all_0": (_column(2, lambda i, v: 0.0), "(d x M1[id], family(binomial, k(3)))", 3, "every response in 'd' is 0"),
    "binomial_all_k": (_column(2, lambda i, v: 3.0), "(d x M1[id], family(binomial, k(3)))", 3, "every response in 'd' is 3"),
}


class TestFailureInjection:
    @pytest.mark.parametrize("case", FAILURE_TABLE)
    def test_exit_code_and_message(self, tmp_path, capsys, case):
        edit, spec, expected, fragment, *flags = FAILURE_TABLE[case]
        rows = _weibull_rows() if edit is None else edit(_weibull_rows())
        data, spec_file, out = tmp_path / "data.csv", tmp_path / "model.txt", tmp_path / "doc.txt"
        lines = ["id,t,d,x"] + [",".join("" if math.isnan(v) else format(v, ".10g") for v in row) for row in rows]
        data.write_text("\n".join(lines) + "\n")
        spec_file.write_text(spec + "\n")
        argv = ["fit", "--spec-file", str(spec_file), "--data", str(data), "--out", str(out), "--quiet"]
        code = main(argv + flags)
        text = capsys.readouterr().err + (out.read_text() if out.exists() else "")
        assert code == expected
        assert fragment in text
        assert out.exists() == (expected != 3)

    def test_time_rescaling_moves_only_cons(self):
        # t -> s t shifts _cons by -gamma log s and the log-likelihood by
        # -events log s; every other estimate and standard error stays
        rows = np.array(_weibull_rows())
        fits = {}
        for scale in (1.0, 1e6, 1e-6):
            cols = {"id": rows[:, 0], "t": rows[:, 1] * scale, "d": rows[:, 2], "x": rows[:, 3]}
            fits[scale] = hm.fit_model(WEIBULL, cols)
            assert fits[scale].converged and fits[scale].optimum_verified, fits[scale].message
        base = fits[1.0]
        for scale in (1e6, 1e-6):
            fit = fits[scale]
            shift = -base.estimate("gamma") * math.log(scale)
            assert abs(fit.estimate("_cons") - (base.estimate("_cons") + shift)) <= 1e-6
            for name in ("x", "gamma"):
                assert abs(fit.estimate(name) - base.estimate(name)) <= 1e-6 * abs(base.estimate(name))
                assert abs(fit.se(name) - base.se(name)) <= 1e-6 * base.se(name)
            expect = base.logl - rows[:, 2].sum() * math.log(scale)
            assert abs(fit.logl - expect) <= 1e-9 * abs(expect)


class TestCheckCommand:
    def test_equal_resolution_zero_shift(self, frailty_csv, tmp_path):
        out = tmp_path / "check.txt"
        code = main(
            [
                "check",
                "--spec",
                SPEC,
                "--data",
                str(frailty_csv),
                "--points",
                "7",
                "--points2",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "max_abs_shift: 0.0" in out.read_text()

    def test_escalation_reports_shifts(self, frailty_csv, tmp_path):
        out = tmp_path / "check.txt"
        code = main(["check", "--spec", SPEC, "--data", str(frailty_csv), "--points", "5", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "max_abs_shift" in text
        assert "base" in text and "escalated" in text

    @pytest.mark.parametrize(
        "flags,expect",
        [
            ([], "aghq points 15 (adaptive) kernel normal"),
            (["--method", "qmc", "--draws", "40"], "qmc draws 160 kernel normal"),
            (["--points", "5"], "aghq points 13 (adaptive) kernel normal"),
        ],
        ids=["aghq", "qmc", "points"],
    )
    def test_default_escalation_sets_only_what_levels_read(self, frailty_csv, tmp_path, flags, expect):
        # the escalated fit's draws name only the QMC levels: on an all-AGHQ
        # model it sets none, which would be an error there; its points are
        # the base fit's, per level, plus 8
        out = tmp_path / "check.txt"
        assert main(["check", "--spec", SPEC, "--data", str(frailty_csv), "--out", str(out), "--quiet"] + flags) == 0
        escalated = out.read_text().split("escalated:")[1]
        assert expect in escalated

    def test_near_zero_frailty_shift_lands_on_sd(self, tmp_path):
        # a nearly degenerate frailty variance is the resolution-sensitive
        # parameter: escalating the rule moves sd(M1) the most
        import math

        from hiermix.simulate import simulate

        spec = "(y M1[id], family(weibull, failure(d)))"
        frame = simulate(
            spec,
            {"_cons": -0.6, "ln_gamma": 0.2, "ln_sd(M1)": math.log(0.15)},
            levels={"id": 40},
            outcomes=[{"censoring": 5.0, "records": 3}],
            seed=31,
        )
        csv = tmp_path / "lowvar.csv"
        names = frame.names
        lines = [",".join(names)]
        for i in range(frame.n):
            lines.append(",".join("" if not np.isfinite(frame.columns[n][i]) else f"{frame.columns[n][i]:.12g}" for n in names))
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "check.txt"
        code = main(
            [
                "check",
                "--spec",
                spec,
                "--data",
                str(csv),
                "--points",
                "5",
                "--points2",
                "13",
                "--no-adaptive",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        shifts = {}
        for line in out.read_text().splitlines():
            line = line.strip()
            for name in ("_cons", "gamma", "sd(M1)"):
                if line.startswith(f"{name}:"):
                    shifts[name] = float(line.split(",")[-1].strip(" ]"))
        assert shifts["sd(M1)"] == max(shifts.values())

import json

import numpy as np
import pytest

import hiermix.optim as optim
from hiermix.cli import main


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

    def test_spec_file_text_and_json(self, frailty_csv, tmp_path):
        sf = tmp_path / "model.txt"
        sf.write_text(SPEC + "\n")
        assert main(["fit", "--spec-file", str(sf), "--data", str(frailty_csv), "--out", str(tmp_path / "a")]) == 0
        from hiermix.dsl import parse_model_spec, spec_to_dict

        jf = tmp_path / "model.json"
        jf.write_text(json.dumps(spec_to_dict(parse_model_spec(SPEC))))
        assert main(["fit", "--spec-file", str(jf), "--data", str(frailty_csv), "--out", str(tmp_path / "b")]) == 0

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

    @pytest.mark.parametrize("flags", [["--points", "5"], ["--method", "qmc", "--draws", "60"]], ids=["aghq", "qmc"])
    def test_thread_count_byte_identical(self, frailty_csv, tmp_path, flags):
        # threads split each batch of derivative probes into sub-stacks
        docs = []
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}.txt"
            argv = ["fit", "--spec", SPEC, "--data", str(frailty_csv), "--out", str(out), "--threads", threads]
            assert main(argv + flags) == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]

    def test_nested_aghq_document_invariant_to_row_order_and_ids(self, tmp_path):
        # each refresh of the adaptation starts from the previous one, so a
        # refresh depends on the fit's path; the path must not depend on
        # the order of the rows or on how trials and patients are labelled
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
            "original": columns,
            "shuffled": {name: col[perm] for name, col in columns.items()},
            "relabelled": {**columns, **relabel},
        }
        docs = []
        for name, cols in variants.items():
            path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.txt"
            rows = [",".join(cols)] + [",".join(format(v, ".17g") for v in row) for row in zip(*cols.values())]
            path.write_text("\n".join(rows) + "\n")
            spec = "(y x M1[trial] M2[trial>pat], family(gaussian))"
            argv = ["fit", "--spec", spec, "--data", str(path), "--out", str(out), "--points", "5", "--quiet"]
            assert main(argv) == 0
            docs.append(out.read_bytes())
        assert docs[1] == docs[0]
        assert docs[2] == docs[0]

    @pytest.mark.parametrize("flags", [["--points", "5"], ["--method", "qmc", "--redistribution", "t", "--df", "5"]])
    def test_per_cluster_document_invariant_to_row_order_and_ids(self, frailty_csv, tmp_path, flags):
        # the frailty outcome is summed per cluster, over each cluster's
        # rows in their canonical order
        rows = frailty_csv.read_text().splitlines()
        header, body = rows[0], rows[1:]
        rng = np.random.default_rng(3)
        ids = rng.permutation(25) + 101
        variants = {
            "original": body,
            "shuffled": [body[i] for i in rng.permutation(len(body))],
            "relabelled": [",".join([str(ids[int(r.split(",")[0]) - 1]), *r.split(",")[1:]]) for r in body],
        }
        docs = []
        for name, lines in variants.items():
            path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.txt"
            path.write_text("\n".join([header, *lines]) + "\n")
            argv = ["fit", "--spec", SPEC, "--data", str(path), "--out", str(out), "--quiet"]
            assert main(argv + flags) == 0
            docs.append(out.read_bytes())
        assert docs[1] == docs[0]
        assert docs[2] == docs[0]

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
        # eigenvectors, comes back positive definite
        real = optim.fd_hessian

        def final_not_definite(objective, theta, f0=None, threads=1, stacked=False, free=None, pool=None, near=None):
            hess = real(objective, theta, f0, threads, stacked, free, pool, near)
            return hess if near is None else -hess

        monkeypatch.setattr(optim, "fd_hessian", final_not_definite)
        out = tmp_path / "o"
        code = main([command, "--spec", SPEC, "--data", str(frailty_csv), "--points", "5", "--out", str(out)])
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

    @pytest.mark.parametrize(
        "flags,name",
        [
            (["--method", "qmc", "--skip", "-20"], "skip"),
            (["--skip", "-20"], "skip"),
            (["--threads", "0"], "threads"),
        ],
        ids=["negative_skip", "negative_skip_aghq", "zero_threads"],
    )
    def test_bad_setting_exits_3(self, frailty_csv, tmp_path, capsys, flags, name):
        out = tmp_path / "o"
        code = main(["fit", "--spec", SPEC, "--data", str(frailty_csv), "--out", str(out)] + flags)
        assert code == 3
        assert name in capsys.readouterr().err
        assert not out.exists()

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

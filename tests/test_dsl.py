import re
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import hiermix as hm
from hiermix.data import as_frame
from hiermix.dsl import (
    Covariate,
    SpecSyntaxError,
    SpecValidationError,
    TimeFn,
    load_spec_file,
    parse_model_spec,
    render_spec,
    save_spec_file,
    validate_spec,
)

README = Path(__file__).resolve().parent.parent / "README.md"

# model statements exercised end to end: single-outcome survival, shared
# frailty, time-dependent effects, multivariate joint models, competing
# risks, delayed entry, user hooks and extra linear predictors
CORPUS = [
    "(time age female M1[patient], family(rp, failure(infect) scale(h) df(3)))",
    "(time trt M1[trial] M2[trial>patient], family(rp, failure(died) scale(h) df(3)))",
    "(time trt M1[trial] trt#M1[trial] M2[trial>patient], family(rp, failure(died) scale(h) df(3)))",
    "(stime trt trt#fp(0)@phi M1[id1] M2[id1>id2], family(rp, failure(died) scale(h) df(3)) timevar(stime))",
    "(stime trt trt#fp(0)@phi age age2 M1[id1] M2[id1>id2], family(rp, failure(died) scale(h) df(3)) timevar(stime))",
    "(stime trt trt#fp(0)@phi M1[id1] M2[id1>id2], family(rp, failure(died) df(3) scale(h) bhazard(bhaz)) timevar(stime))",
    "(rectime trt M1[id1], family(rp, failure(recevent) scale(h) df(5))) (stime trt M1[id1]@alpha, family(rp, failure(died) scale(h) df(3)))",
    "(rectime trt M1[id1] M2[id1], family(weibull, failure(recevent))) (stime trt M2[id1], family(rp, failure(died) scale(h) df(3)))",
    "(canctime trt EV[logb]@a1 EV[logp]@a2 M5[id], family(weibull, failure(canc)))"
    " (stime trt EV[logb]@a4 EV[logp]@a5 M5[id]@alpha, family(gompertz, failure(died)))"
    " (logb fp(1)@l1 fp(1)#M2[id] M1[id], family(gaussian) timevar(time))"
    " (logp fp(1)@l2 fp(1)#M4[id] M3[id], family(gaussian) timevar(time))",
    "(stime trt EV[logb]@beta1 EV[logp]@beta2 EV[logb]#EV[logp]@beta3, family(weibull, failure(died)))"
    " (logb fp(1)@l1 fp(1)#M2[id] M1[id], family(gaussian) timevar(time))"
    " (logp fp(1)@l2 fp(1)#M4[id] M3[id], family(gaussian) timevar(time))"
    " , covariance(unstructured) redistribution(t) df(3)",
    "(stime trt EV[logb]@beta1 EV[logp]@beta2 fp(0)#EV[logp]@beta3, family(rp, failure(died) df(3) scale(h)) timevar(stime))"
    " (logb fp(1)@l1 fp(1)#M2[id] M1[id], family(gaussian) timevar(time))"
    " (logp fp(1)@l2 fp(1)#M4[id] M3[id], family(gaussian) timevar(time))"
    " , covariance(unstructured)",
    "(stime trt EV[logb]@a1 EV[logp]@a2, family(weibull, failure(diedpbc)))"
    " (stime trt EV[logb]@a3 EV[logp]@a4, family(gompertz, failure(diedother)))"
    " (logb fp(1 2)@l1 fp(1)#M2[id] M1[id], family(gaussian) timevar(time))"
    " (logp rcs(df(3))@l2 fp(1)#M4[id] M3[id], family(gaussian) timevar(time))",
    "(canctime trt EV[logb]@a1 EV[logp]@a2, family(weibull, failure(canc)))"
    " (stimenocanc trt EV[logb]@a4 EV[logp]@a5, family(gompertz, failure(diednocanc) ltrunc(canctime)))"
    " (stimecanc trt EV[logb]@a6 EV[logp]@a7, family(gompertz, failure(diedcanc)))"
    " (logb fp(1)@l1 fp(1)#M2[id] M1[id], family(gaussian) timevar(time))"
    " (logp fp(1)@l2 fp(1)#M4[id] M3[id], family(gaussian) timevar(time))",
    "(resp age female M1[id], family(user, loglf(nlme_logl)) np(1) timevar(time))"
    " (age female M2[id], family(null))"
    " (age female M3[id], family(null))"
    " (stime age female EV[1]@alpha1 EV[2]@alpha2 EV[3]@alpha3, family(weibull, failure(died)))"
    " , covariance(unstructured)",
    "(stime trt M1[id], family(user, hfunction(haz) failure(died)) np(3))",
    "(resp female age age#M2[id] M1[id], family(user, llf(lev1_logl))) (age female M3[id], family(null)), covariance(unstructured)",
    "(logb time time#M2[id] M1[id], family(user, loglf(gauss_logl)) np(1))",
    "(y x, family(gaussian))",
]


class TestParseCorpus:
    @pytest.mark.parametrize("text", CORPUS, ids=range(len(CORPUS)))
    def test_parses(self, text):
        spec = parse_model_spec(text)
        assert len(spec.outcomes) >= 1

    def test_readme_specs_parse(self):
        # every model in README: the quoted and inline specs, and each
        # example of the "Examples:" block (one model per paragraph)
        text = README.read_text()
        specs = re.findall(r'["`](\([^"`]*family\([^"`]*)["`]', text)
        examples = text.split("Examples:", 1)[1].split("```text", 1)[1].split("```", 1)[0]
        specs += [block for block in examples.split("\n\n") if block.strip()]
        assert len(specs) >= 8
        for spec in specs:
            assert parse_model_spec(spec).outcomes, spec

    @pytest.mark.parametrize("text", CORPUS, ids=range(len(CORPUS)))
    def test_round_trip(self, text):
        spec = parse_model_spec(text)
        again = parse_model_spec(render_spec(spec))
        assert spec == again

    @pytest.mark.parametrize("text", CORPUS, ids=range(len(CORPUS)))
    def test_structured_round_trip(self, text, tmp_path):
        # a spec file holds the canonical text, which reads back equal
        spec = parse_model_spec(text)
        path = tmp_path / "model.txt"
        save_spec_file(spec, path)
        assert path.read_text() == render_spec(spec) + "\n"
        assert load_spec_file(path) == spec


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_KNOTS = st.lists(_FLOATS, min_size=2, max_size=5, unique=True).map(sorted)


def _numbers(values) -> str:
    return " ".join(repr(v) for v in values)


@st.composite
def _spec_texts(draw) -> str:
    """Model statements with every number and family option the canonical
    text writes: knots and fp powers at full precision, rp with and
    without scale(h), np(), ltrunc, bhazard and k().
    """
    scale = draw(st.sampled_from(["", " scale(h)"]))
    baseline = f"knots({_numbers(draw(_KNOTS))})" if draw(st.booleans()) else f"df({draw(st.integers(1, 6))})"
    entry = draw(st.sampled_from(["", " ltrunc(t0)"]))
    bhazard = draw(st.sampled_from(["", " bhazard(bh)"]))
    powers = _numbers(draw(st.lists(_FLOATS, min_size=1, max_size=3)))
    groups = [
        f"(t x x#fp({powers})@p1 M1[id], family(rp, failure(d){scale} {baseline}{entry}{bhazard}))",
        f"(y rcs(knots({_numbers(draw(_KNOTS))}))@p2 M2[id], family(gaussian) timevar(time))",
        f"(n x M1[id], family(binomial, k({draw(st.integers(1, 50))})))",
        f"(u x M2[id], family(user, loglf(ll)) np({draw(st.integers(1, 4))}))",
    ]
    groups = draw(st.permutations(groups))[: draw(st.integers(1, len(groups)))]
    tail = draw(st.sampled_from(["", ", covariance(unstructured)", ", redistribution(t) df(4)"]))
    return " ".join(groups) + tail


class TestCanonicalText:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(text=_spec_texts())
    @example(text="(t x M1[id], family(rp, failure(d) knots(-3.14159265 0.123456789 1.38629436)))")
    @example(text="(y rcs(df(3) knots(0.5 2.25))@s M1[id], family(gaussian) timevar(t)), df(3)")
    def test_parse_of_render_is_identity(self, text):
        spec = parse_model_spec(text)
        assert parse_model_spec(render_spec(spec)) == spec

    def test_rp_scale_is_written_whether_given_or_not(self):
        texts = [f"(t x, family(rp, failure(d){scale} df(3)))" for scale in ("", " scale(h)")]
        assert render_spec(parse_model_spec(texts[0])) == render_spec(parse_model_spec(texts[1])) == texts[1]


class TestStructure:
    def test_kidney_spec_shape(self):
        spec = parse_model_spec("(time age female M1[patient], family(rp, failure(infect) scale(h) df(3)))")
        out = spec.outcomes[0]
        assert out.response == "time"
        assert len(out.components) == 3
        assert out.family.name == "rp" and out.family.failure == "infect" and out.family.df == 3
        assert spec.latents["M1"].level == "patient"
        assert spec.levels == ("patient",)

    def test_minimal_gaussian(self):
        spec = parse_model_spec("(y x, family(gaussian))")
        assert spec.outcomes[0].response == "y"
        assert len(spec.outcomes[0].components) == 1
        assert spec.latents == {}

    def test_shared_frailty_two_outcomes(self):
        spec = parse_model_spec(
            "(rectime trt M1[id1], family(weibull, failure(recevent)))"
            " (stime trt M1[id1]@alpha, family(rp, failure(died) scale(h) df(3)))"
        )
        assert len(spec.outcomes) == 2
        assert list(spec.latents) == ["M1"]
        second = spec.outcomes[1].components[1]
        assert second.coef == "alpha"
        first = spec.outcomes[0].components[1]
        assert first.coef is None and first.has_latent

    def test_hash_binds_tighter_than_space(self):
        spec = parse_model_spec("(y a#b c, family(gaussian))")
        comps = spec.outcomes[0].components
        assert len(comps) == 2
        assert [type(e) for e in comps[0].elements] == [Covariate, Covariate]
        assert len(comps[1].elements) == 1

    def test_interaction_order_preserved(self):
        spec = parse_model_spec("(y b#a, family(gaussian))")
        assert [e.name for e in spec.outcomes[0].components[0].elements] == ["b", "a"]

    def test_level_path_directions_agree(self):
        a = parse_model_spec("(y M1[trial>patient], family(gaussian))")
        b = parse_model_spec("(y M1[patient<trial], family(gaussian))")
        assert a.latents["M1"].path == b.latents["M1"].path == ("trial", "patient")

    def test_positional_and_named_ev(self):
        # positional indices address outcomes that have no response name
        spec = parse_model_spec(
            "(x M1[id], family(null)) (logb x2 M1[id], family(gaussian))"
            " (stime EV[1]@a EV[logb]@b, family(weibull, failure(d)))"
        )
        evs = spec.outcomes[2].ev_targets
        assert spec.ev_target_index(evs[0]) == 0
        assert spec.ev_target_index(evs[1]) == 1

    def test_fp_powers_and_rcs(self):
        spec = parse_model_spec("(y fp(0 1 2)@p rcs(df(3))@s M1[id], family(gaussian) timevar(t))")
        fp = spec.outcomes[0].components[0].elements[0]
        assert isinstance(fp, TimeFn) and fp.powers == (0.0, 1.0, 2.0)
        rcs = spec.outcomes[0].components[1].elements[0]
        assert rcs.df == 3

    def test_redistribution_applies(self):
        spec = parse_model_spec("(y M1[id], family(gaussian)), redistribution(t) df(4)")
        assert spec.re_distribution == "t" and spec.t_df == 4

    def test_outcome_level_option_wins(self):
        spec = parse_model_spec(
            "(y M1[id], family(gaussian) covariance(unstructured)), covariance(independent)"
        )
        assert spec.covariance == "unstructured"


class TestParseErrors:
    def test_syntax_error_carries_position(self):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_model_spec("(y x$, family(gaussian))")
        assert exc.value.position > 0

    def test_unknown_family(self):
        known = "gaussian, poisson, bernoulli, beta, binomial, negbinomial, exponential, weibull, gompertz, lognormal, loglogistic, rp, user, null"
        with pytest.raises(SpecSyntaxError, match=re.escape(f"unknown family 'gamma' (known: {known})")):
            parse_model_spec("(y x, family(gamma))")

    def test_cyclic_ev(self):
        with pytest.raises(SpecValidationError, match="cyclic"):
            parse_model_spec("(y EV[z]@a M1[id], family(gaussian)) (z EV[y]@b M1[id], family(gaussian))")

    def test_inconsistent_latent_path(self):
        with pytest.raises(SpecValidationError, match="different cluster path"):
            parse_model_spec("(y M1[id], family(gaussian)) (z M1[trial>id], family(gaussian))")

    def test_duplicate_coefficient_name(self):
        with pytest.raises(SpecValidationError, match="@alpha"):
            parse_model_spec("(y x@alpha M1[id], family(gaussian)) (z w@alpha M1[id], family(gaussian))")

    @pytest.mark.parametrize(
        "text,option",
        [
            ("(t x, family(weibull, failure()))", "failure("),
            ("(t x, family(weibull, failure(d) ltrunc()))", "ltrunc("),
            ("(t x, family(weibull, failure(d) bhazard( )))", "bhazard("),
            ("(y x, family(gaussian) timevar())", "timevar("),
            ("(y x, family(user, llf()))", "llf("),
            ("(t x, family(user, failure(d) hfunction()))", "hfunction("),
            ("(t x, family(user, failure(d) chfunction()))", "chfunction("),
            ("(t x, family(weibull, failure))", "failure"),
        ],
        ids=["failure", "ltrunc", "bhazard", "timevar", "llf", "hfunction", "chfunction", "bare_failure"],
    )
    def test_empty_option_value(self, text, option):
        # an empty name is an error at the option's position, not "no column"
        with pytest.raises(SpecSyntaxError, match=r"needs a name") as exc:
            parse_model_spec(text)
        assert exc.value.position == text.index(option)

    @pytest.mark.parametrize(
        "text",
        [
            "(y x, family)",
            "(y x, family(gaussian) np)",
            "(y rcs(df), family(gaussian) timevar(t))",
            "(y x, family(gaussian)), covariance",
            "(y x, family(gaussian)), df",
        ],
        ids=["family", "np", "rcs_df", "covariance", "t_df"],
    )
    def test_bare_option_needing_a_value(self, text):
        with pytest.raises(SpecSyntaxError):
            parse_model_spec(text)

    def test_survival_needs_failure(self):
        with pytest.raises(SpecSyntaxError, match="failure"):
            parse_model_spec("(y x, family(weibull))")

    def test_capitalized_covariate_rejected(self):
        with pytest.raises(SpecSyntaxError, match="capital"):
            parse_model_spec("(y Age, family(gaussian))")

    def test_empty_spec(self):
        with pytest.raises(SpecSyntaxError):
            parse_model_spec("   ")

    def test_unbalanced_parens(self):
        with pytest.raises(SpecSyntaxError):
            parse_model_spec("(y x, family(gaussian)")

    def test_timefn_needs_timevar(self):
        with pytest.raises(SpecValidationError, match="timevar"):
            parse_model_spec("(y fp(1)@s, family(gaussian))")

    def test_nonnested_paths_rejected(self):
        with pytest.raises(SpecValidationError, match="nest"):
            parse_model_spec("(y M1[a>b], family(gaussian)) (z M2[c>d], family(gaussian))")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("(t x, family(rp, failure(d) scale(odds) df(3)))", r"supports scale\(h\) only, got scale\(odds\)"),
            ("(t x, family(weibull, failure(d) scale(h)))", r"scale\(\) is not an option of family 'weibull'"),
        ],
        ids=["rp_other_scale", "scale_off_rp"],
    )
    def test_scale_is_rp_h_only(self, text, message):
        with pytest.raises(SpecSyntaxError, match=message):
            parse_model_spec(text)

    @pytest.mark.parametrize(
        "text,option",
        [
            ("(y x, family(poisson, k(3)))", "k("),
            ("(y x, family(gaussian, df(3)))", "df("),
            ("(y x, family(weibull, failure(d) k(2)))", "k("),
            ("(y x, family(null, failure(d)))", "failure("),
            ("(y x, family(bernoulli, llf(f)))", "llf("),
        ],
        ids=["k_off_binomial", "df_off_rp", "k_on_survival", "failure_on_null", "hook_off_user"],
    )
    def test_option_the_family_does_not_read(self, text, option):
        name = text[text.index("family(") + 7 :].split(",")[0]
        with pytest.raises(SpecSyntaxError, match=rf"is not an option of family '{name}'") as exc:
            parse_model_spec(text)
        assert exc.value.position == text.index(option)

    def test_user_loglf_takes_no_survival_options(self):
        with pytest.raises(SpecSyntaxError, match=r"with loglf\(\) takes no failure\(\)"):
            parse_model_spec("(y x, family(user, loglf(f) failure(d)))")

    def test_dict_spec_rejected(self):
        with pytest.raises(SpecSyntaxError, match="at position 0"):
            hm.fit_model({"outcomes": []}, {"y": np.ones(3)})

    def test_ev_of_survival_rejected(self):
        with pytest.raises(SpecValidationError, match="survival"):
            parse_model_spec(
                "(stime x, family(weibull, failure(d))) (y EV[stime]@a M1[id], family(gaussian))"
            )


class TestValidateSpec:
    def make_frame(self):
        rng = np.random.default_rng(2)
        n = 20
        return as_frame(
            {
                "patient": np.repeat(np.arange(10, dtype=float) + 1, 2),
                "time": rng.exponential(5, n) + 0.5,
                "infect": (rng.random(n) < 0.7).astype(float),
                "age": rng.normal(45, 10, n),
                "female": np.tile([0.0, 1.0], 10),
            }
        )

    def test_valid_report(self):
        frame = self.make_frame()
        spec = parse_model_spec("(time age female M1[patient], family(rp, failure(infect) scale(h) df(2)))")
        report = validate_spec(spec, frame)
        assert report.ok
        assert report.levels == [("patient", 10)]
        assert report.n_latents == 1

    def test_missing_column_named(self):
        frame = self.make_frame()
        spec = parse_model_spec("(time age2 M1[patient], family(weibull, failure(infect)))")
        report = validate_spec(spec, frame)
        assert not report.ok
        assert any("age2" in e for e in report.errors)

    def test_missing_covariate_value_reported(self):
        frame = self.make_frame()
        frame.columns["age"][3] = np.nan
        spec = parse_model_spec("(time age M1[patient], family(weibull, failure(infect)))")
        report = validate_spec(spec, frame)
        assert any("age" in e and "missing" in e for e in report.errors)

    def test_bad_indicator_reported(self):
        frame = self.make_frame()
        frame.columns["infect"][0] = 3.0
        spec = parse_model_spec("(time age M1[patient], family(weibull, failure(infect)))")
        report = validate_spec(spec, frame)
        assert any("infect" in e for e in report.errors)

    def test_survival_outcome_without_events_rejected(self):
        # all rows censored: the model is not identified
        frame = self.make_frame()
        frame.columns["infect"][:] = 0.0
        spec = parse_model_spec("(time age M1[patient], family(weibull, failure(infect)))")
        report = validate_spec(spec, frame)
        assert not report.ok
        assert any("no events" in e and "infect" in e for e in report.errors)
        with pytest.raises(SpecValidationError, match="no events"):
            hm.fit_model(spec, frame)

    @pytest.mark.parametrize("family,bound", [("poisson", 0.0), ("bernoulli", 1.0), ("binomial, k(2)", 2.0)])
    def test_responses_at_a_bound_need_noconstant(self, family, bound):
        # every response at a bound: the constant has no finite estimate,
        # and only an outcome without one is accepted
        frame = self.make_frame()
        frame.columns["infect"][:] = bound
        refused = validate_spec(parse_model_spec(f"(infect age M1[patient], family({family}))"), frame)
        assert [e for e in refused.errors if f"every response in 'infect' is {bound:g}" in e]
        assert validate_spec(parse_model_spec(f"(infect age M1[patient], family({family}) noconstant)"), frame).ok
        frame.columns["infect"][0] = 1.0 - bound % 2
        assert validate_spec(parse_model_spec(f"(infect age M1[patient], family({family}))"), frame).ok

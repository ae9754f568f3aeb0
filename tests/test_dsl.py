import numpy as np
import pytest

import hiermix as hm
from hiermix.data import as_frame
from hiermix.dsl import (
    Covariate,
    SpecSyntaxError,
    SpecValidationError,
    TimeFn,
    parse_model_spec,
    render_spec,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)

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

    @pytest.mark.parametrize("text", CORPUS, ids=range(len(CORPUS)))
    def test_round_trip(self, text):
        spec = parse_model_spec(text)
        again = parse_model_spec(render_spec(spec))
        assert spec == again

    @pytest.mark.parametrize("text", CORPUS, ids=range(len(CORPUS)))
    def test_structured_round_trip(self, text):
        import json

        spec = parse_model_spec(text)
        doc = json.loads(json.dumps(spec_to_dict(spec)))
        assert spec_from_dict(doc) == spec


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
        with pytest.raises(SpecSyntaxError, match="unknown family"):
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

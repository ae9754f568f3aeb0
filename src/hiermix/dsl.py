"""Model-specification language.

A model is one or more outcome groups, each ``(response components...,
options...)``, optionally followed by ``, options...`` applying to the
whole specification. Components are separated by spaces, elements
within a component by ``#``, and ``@name`` attaches a named free
coefficient to a component. Latent effects start with a capital letter
and carry their cluster path in brackets, ``M1[trial>patient]``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .data import DataFrame, Hierarchy, OutcomeRows, build_hierarchy, split_outcome_rows
from .families import FAMILIES

__all__ = [
    "SpecSyntaxError",
    "SpecValidationError",
    "Covariate",
    "Intercept",
    "Latent",
    "TimeFn",
    "EVLink",
    "Component",
    "FamilySpec",
    "OutcomeSpec",
    "ModelSpec",
    "ValidationReport",
    "parse_model_spec",
    "render_spec",
    "load_spec_file",
    "save_spec_file",
    "validate_spec",
]

EV_KINDS = ("EV", "dEV", "d2EV", "iEV")


class SpecSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SpecValidationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Specification tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Covariate:
    name: str


@dataclass(frozen=True)
class Intercept:
    pass


@dataclass(frozen=True)
class Latent:
    name: str
    path: tuple[str, ...]  # outermost -> innermost

    @property
    def level(self) -> str:
        return self.path[-1]


@dataclass(frozen=True)
class TimeFn:
    kind: str  # "fp" | "rcs"
    powers: tuple[float, ...] | None = None
    df: int | None = None
    knots: tuple[float, ...] | None = None

    @property
    def ncols(self) -> int:
        if self.kind == "fp":
            return len(self.powers)
        if self.knots is not None:
            return len(self.knots) - 1
        return self.df


@dataclass(frozen=True)
class EVLink:
    kind: str  # EV | dEV | d2EV | iEV
    target: str | int  # response name or 1-based position


Element = Covariate | Intercept | Latent | TimeFn | EVLink


@dataclass(frozen=True)
class Component:
    elements: tuple[Element, ...]
    coef: str | None = None  # @name, or None

    @property
    def has_latent(self) -> bool:
        return any(isinstance(e, Latent) for e in self.elements)


@dataclass(frozen=True)
class FamilySpec:
    name: str
    failure: str | None = None
    df: int | None = None
    knots: tuple[float, ...] | None = None
    ltrunc: str | None = None
    bhazard: str | None = None
    k: int | None = None
    n_anc: int = 0
    loglf: str | None = None
    hazard: str | None = None
    cumhazard: str | None = None

    @property
    def is_survival(self) -> bool:
        if self.name == "user":
            return (self.hazard or self.cumhazard) is not None
        return self.name in FAMILIES and FAMILIES[self.name].is_survival

    @property
    def is_null(self) -> bool:
        return self.name == "null"


@dataclass(frozen=True)
class OutcomeSpec:
    response: str | None
    family: FamilySpec
    components: tuple[Component, ...]
    timevar: str | None = None
    noconstant: bool = False

    @property
    def has_timefn(self) -> bool:
        return any(isinstance(e, TimeFn) for c in self.components for e in c.elements)

    @property
    def ev_targets(self) -> list[EVLink]:
        return [e for c in self.components for e in c.elements if isinstance(e, EVLink)]


@dataclass(frozen=True)
class LatentInfo:
    name: str
    path: tuple[str, ...]
    level: str
    index: int  # position within its level's vector of latent effects


@dataclass(frozen=True)
class ModelSpec:
    outcomes: tuple[OutcomeSpec, ...]
    covariance: str = "independent"
    re_distribution: str = "normal"  # "normal" | "t"
    t_df: int | None = None
    levels: tuple[str, ...] = ()  # outermost -> innermost
    latents: dict[str, LatentInfo] = field(default_factory=dict, compare=False)

    def latents_at(self, level: str) -> list[LatentInfo]:
        out = [li for li in self.latents.values() if li.level == level]
        return sorted(out, key=lambda li: li.index)

    def ev_target_index(self, ev: EVLink) -> int:
        """Resolve an EV target to a 0-based outcome index."""
        if isinstance(ev.target, int):
            if not 1 <= ev.target <= len(self.outcomes):
                raise SpecValidationError(f"{ev.kind}[{ev.target}] is out of range (model has {len(self.outcomes)} outcomes)")
            return ev.target - 1
        matches = [i for i, o in enumerate(self.outcomes) if o.response == ev.target]
        if not matches:
            raise SpecValidationError(f"{ev.kind}[{ev.target}]: no outcome has response {ev.target!r}")
        if len(matches) > 1:
            raise SpecValidationError(f"{ev.kind}[{ev.target}]: response name is ambiguous, use a positional index")
        return matches[0]


# ---------------------------------------------------------------------------
# Tokenizing helpers
# ---------------------------------------------------------------------------


def _split_depth0(text: str, offset: int, seps: str) -> list[tuple[str, int]]:
    """Split on separator characters at bracket/paren depth zero,
    returning (chunk, absolute offset) pairs. Whitespace separators
    collapse; other separators yield (possibly empty) fields.
    """
    parts: list[tuple[str, int]] = []
    depth = 0
    start = 0
    i = 0
    ws = seps.strip() == ""
    while i < len(text):
        ch = text[i]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise SpecSyntaxError(f"unbalanced {ch!r}", offset + i)
        elif depth == 0 and ch in seps:
            chunk = text[start:i]
            if chunk.strip() or not ws:
                parts.append((chunk, offset + start))
            start = i + 1
        i += 1
    if depth != 0:
        raise SpecSyntaxError("unbalanced parentheses or brackets", offset + len(text))
    chunk = text[start:]
    if chunk.strip() or not ws:
        parts.append((chunk, offset + start))
    return parts


def _strip(chunk: str, offset: int) -> tuple[str, int]:
    lead = len(chunk) - len(chunk.lstrip())
    return chunk.strip(), offset + lead


_OPTION_RE = re.compile(r"^([A-Za-z_]\w*)\s*\((.*)\)$", re.DOTALL)
_NAME_RE = re.compile(r"^[A-Za-z_]\w*$")


def _parse_options(text: str, offset: int) -> list[tuple[str, str | None, int, int]]:
    """Parse ``key(value) key(value) flag ...`` into (key, value stripped,
    "" for a bare flag, offset of the option, offset of the value) tuples.
    """
    out = []
    for chunk, pos in _split_depth0(text, offset, " \t\r\n"):
        chunk, pos = _strip(chunk, pos)
        m = _OPTION_RE.match(chunk)
        if m:
            value, vpos = _strip(m.group(2), pos + m.start(2))
            out.append((m.group(1), value, pos, vpos))
        elif _NAME_RE.match(chunk):
            out.append((chunk, "", pos, pos))
        else:
            raise SpecSyntaxError(f"expected option, got {chunk!r}", pos)
    return out


def _parse_numbers(text: str, pos: int) -> tuple[float, ...]:
    vals = []
    for tok in re.split(r"[,\s]+", text.strip()):
        if not tok:
            continue
        try:
            vals.append(float(tok))
        except ValueError:
            raise SpecSyntaxError(f"expected a number, got {tok!r}", pos) from None
    return tuple(vals)


def _parse_int(text: str, pos: int, what: str) -> int:
    try:
        v = float(text.strip())
    except ValueError:
        raise SpecSyntaxError(f"{what} must be an integer, got {text!r}", pos) from None
    if v != int(v) or v <= 0:
        raise SpecSyntaxError(f"{what} must be a positive integer, got {text!r}", pos)
    return int(v)


def _integer(value, what: str) -> int:
    """``value`` read by ``operator.index``: one that is not an integer, a
    whole float included, is a ValueError naming the setting ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


# ---------------------------------------------------------------------------
# Element / component parsing
# ---------------------------------------------------------------------------


_LATENT_RE = re.compile(r"^([A-Z]\w*)\[(.*)\]$", re.DOTALL)
_EV_RE = re.compile(r"^(EV|dEV|d2EV|iEV)\[(.*)\]$", re.DOTALL)
_FN_RE = re.compile(r"^(fp|rcs)\((.*)\)$", re.DOTALL)


def _parse_level_path(text: str, pos: int) -> tuple[str, ...]:
    text = text.strip()
    if ">" in text and "<" in text:
        raise SpecSyntaxError("mixed > and < in a cluster path", pos)
    if "<" in text:
        names = [t.strip() for t in text.split("<")][::-1]
    else:
        names = [t.strip() for t in text.split(">")]
    if not names or any(not _NAME_RE.match(n) for n in names):
        raise SpecSyntaxError(f"bad cluster path {text!r}", pos)
    if len(set(names)) != len(names):
        raise SpecSyntaxError(f"repeated level in cluster path {text!r}", pos)
    return tuple(names)


def _parse_element(text: str, pos: int) -> Element:
    text, pos = _strip(text, pos)
    if not text:
        raise SpecSyntaxError("empty element", pos)
    if text == "1":
        return Intercept()
    m = _EV_RE.match(text)
    if m:
        target = m.group(2).strip()
        if not target:
            raise SpecSyntaxError(f"{m.group(1)}[] needs a target outcome", pos)
        if target.isdigit():
            return EVLink(m.group(1), int(target))
        if not _NAME_RE.match(target):
            raise SpecSyntaxError(f"bad expected-value target {target!r}", pos)
        return EVLink(m.group(1), target)
    m = _FN_RE.match(text)
    if m:
        kind, args = m.group(1), m.group(2)
        if kind == "fp":
            powers = _parse_numbers(args, pos)
            if not powers:
                raise SpecSyntaxError("fp() needs at least one power", pos)
            return TimeFn("fp", powers=powers)
        df = None
        knots = None
        for key, val, p, _ in _parse_options(args, pos):
            if key == "df":
                df = _parse_int(val, p, "rcs df")
            elif key == "knots":
                knots = _parse_numbers(val, p)
            else:
                raise SpecSyntaxError(f"unknown rcs() option {key!r}", p)
        if df is None and knots is None:
            raise SpecSyntaxError("rcs() needs df() or knots()", pos)
        if knots is not None and len(knots) < 2:
            raise SpecSyntaxError("rcs(knots()) needs at least 2 knots", pos)
        return TimeFn("rcs", df=df, knots=knots)
    m = _LATENT_RE.match(text)
    if m:
        return Latent(m.group(1), _parse_level_path(m.group(2), pos))
    if _NAME_RE.match(text):
        if text[0].isupper():
            raise SpecSyntaxError(
                f"{text!r} starts with a capital letter: latent effects need a cluster path like {text}[id]", pos
            )
        return Covariate(text)
    raise SpecSyntaxError(f"cannot parse element {text!r}", pos)


def _parse_component(text: str, pos: int) -> Component:
    text, pos = _strip(text, pos)
    coef = None
    at_parts = _split_depth0(text, pos, "@")
    if len(at_parts) > 2:
        raise SpecSyntaxError("more than one @ in a component", at_parts[2][1])
    if len(at_parts) == 2:
        (text, pos), (coef_text, coef_pos) = at_parts
        coef_text = coef_text.strip()
        if not _NAME_RE.match(coef_text):
            raise SpecSyntaxError(f"bad coefficient name {coef_text!r}", coef_pos)
        coef = coef_text
    elements = tuple(_parse_element(t, p) for t, p in _split_depth0(text, pos, "#"))
    if not elements:
        raise SpecSyntaxError("empty component", pos)
    return Component(elements, coef)


# ---------------------------------------------------------------------------
# Family and outcome parsing
# ---------------------------------------------------------------------------


def _named(key: str, val: str, pos: int) -> str:
    """The value of an option that names a column or a registered hook,
    such as ``failure(d)``: empty, or a bare ``failure``, is an error at
    the option's position.
    """
    if not val:
        raise SpecSyntaxError(f"{key}() needs a name", pos)
    return val


# family() option spellings that differ from the FamilySpec field they set
_FAMILY_FIELDS = {"np": "n_anc", "llf": "loglf", "loglfunction": "loglf", "hfunction": "hazard", "chfunction": "cumhazard"}


def _parse_family(args: str, pos: int, args_pos: int) -> FamilySpec:
    """The family of the ``family(args)`` option at ``pos``, its
    arguments starting at ``args_pos``. An option the family does not
    read (its ``options`` in ``FAMILIES``) is an error at its position.
    """
    head, *rest = _split_depth0(args, args_pos, ",")
    name, npos = _strip(*head)
    if name not in FAMILIES:
        raise SpecSyntaxError(f"unknown family {name!r} (known: {', '.join(FAMILIES)})", npos)
    fields: dict = {"name": name}
    for chunk, cpos in rest:
        for key, val, p, _ in _parse_options(chunk, cpos):
            field = _FAMILY_FIELDS.get(key, key)
            if field not in FAMILIES[name].options:
                if not any(field in family.options for family in FAMILIES.values()):
                    raise SpecSyntaxError(f"unknown family option {key!r}", p)
                raise SpecSyntaxError(f"{key}() is not an option of family {name!r}", p)
            if field == "scale":  # the spline model's only scale, log cumulative hazard
                if val != "h":
                    raise SpecSyntaxError(f"family(rp) supports scale(h) only, got scale({val})", p)
            elif field == "df":
                fields["df"] = _parse_int(val, p, "family df")
            elif field == "k":
                fields["k"] = _parse_int(val, p, "binomial k")
            elif field == "n_anc":
                fields["n_anc"] = _parse_int(val, p, "np")
            elif field == "knots":
                fields["knots"] = _parse_numbers(val, p)
            else:  # a column or a registered hook
                fields[field] = _named(key, val, p)
    fam = FamilySpec(**fields)
    _check_family(fam, pos)
    return fam


def _check_family(fam: FamilySpec, pos: int) -> None:
    if FAMILIES[fam.name].is_survival and not fam.failure:
        raise SpecSyntaxError(f"family {fam.name!r} needs a failure() event indicator", pos)
    if fam.name == "rp" and fam.df is None and fam.knots is None:
        raise SpecSyntaxError("family(rp) needs df() or knots()", pos)
    if fam.name == "binomial" and fam.k is None:
        raise SpecSyntaxError("family(binomial) needs k(), the number of trials", pos)
    if fam.name == "user":
        hooks = sum(x is not None for x in (fam.loglf, fam.hazard, fam.cumhazard))
        if fam.loglf and (fam.hazard or fam.cumhazard):
            raise SpecSyntaxError("family(user) takes either loglf() or hazard/cumhazard hooks, not both", pos)
        if hooks == 0:
            raise SpecSyntaxError("family(user) needs loglf(), hfunction() or chfunction()", pos)
        if (fam.hazard or fam.cumhazard) and not fam.failure:
            raise SpecSyntaxError("user hazard families need a failure() event indicator", pos)
        if fam.loglf and (fam.failure or fam.ltrunc or fam.bhazard):
            raise SpecSyntaxError("family(user) with loglf() takes no failure(), ltrunc() or bhazard()", pos)


_GLOBAL_KEYS = ("covariance", "redistribution", "df")


def _global_option(key: str, val: str, pos: int) -> tuple:
    """(value, position) of a spec-wide option, given at the outcome or
    the specification level.
    """
    return (_parse_int(val, pos, "t df") if key == "df" else val), pos


def _parse_outcome(body: str, pos: int) -> tuple[OutcomeSpec, dict]:
    parts = _split_depth0(body, pos, ",")
    element_text, element_pos = parts[0]
    family = None
    timevar = None
    noconstant = False
    n_anc_opt = None
    overrides: dict = {}
    for chunk, cpos in parts[1:]:
        for key, val, p, vpos in _parse_options(chunk, cpos):
            if key == "family":
                if family is not None:
                    raise SpecSyntaxError("family() given twice", p)
                family = _parse_family(val, p, vpos)
            elif key == "timevar":
                timevar = _named(key, val, p)
            elif key in ("noconstant", "nocons"):
                noconstant = True
            elif key == "np":
                n_anc_opt = _parse_int(val, p, "np")
            elif key in _GLOBAL_KEYS:
                overrides[key] = _global_option(key, val, p)
            else:
                raise SpecSyntaxError(f"unknown outcome option {key!r}", p)
    if family is None:
        raise SpecSyntaxError("outcome needs a family() option", pos)
    if n_anc_opt is not None:
        if family.name != "user":
            raise SpecSyntaxError("np() is only valid with family(user)", pos)
        family = replace(family, n_anc=n_anc_opt)
    items = _split_depth0(element_text, element_pos, " \t\r\n")
    components = [_parse_component(t, p) for t, p in items]
    response = None
    if not family.is_null:
        if not components:
            raise SpecSyntaxError("outcome needs a response variable", element_pos)
        first = components[0]
        if len(first.elements) != 1 or not isinstance(first.elements[0], Covariate) or first.coef:
            raise SpecSyntaxError("the first item of an outcome must be its response variable", items[0][1])
        response = first.elements[0].name
        components = components[1:]
    return (
        OutcomeSpec(response=response, family=family, components=tuple(components), timevar=timevar, noconstant=noconstant),
        overrides,
    )


# ---------------------------------------------------------------------------
# Whole-specification parsing
# ---------------------------------------------------------------------------


def parse_model_spec(text: str) -> ModelSpec:
    """Parse the model-specification language into a validated ModelSpec."""
    if not text or not text.strip():
        raise SpecSyntaxError("empty model specification", 0)
    groups: list[tuple[str, int]] = []
    tail: str = ""
    tail_pos = 0
    depth = 0
    start = None
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            if depth == 0:
                start = i + 1
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SpecSyntaxError("unbalanced ')'", i)
            if depth == 0:
                groups.append((text[start:i], start))
        elif depth == 0:
            if ch == ",":
                tail = text[i + 1 :]
                tail_pos = i + 1
                break
            if not ch.isspace():
                raise SpecSyntaxError(f"unexpected {ch!r} outside an outcome group", i)
        i += 1
    if depth != 0:
        raise SpecSyntaxError("unbalanced '('", len(text))
    if not groups:
        raise SpecSyntaxError("no outcome group found; expected '(response ..., family(...))'", 0)

    outcomes: list[OutcomeSpec] = []
    merged: dict = {}
    for body, pos in groups:
        outcome, overrides = _parse_outcome(body, pos)
        outcomes.append(outcome)
        merged.update(overrides)  # outcome level wins over spec level
    spec_level: dict = {}
    if tail.strip():
        for key, val, p, _ in _parse_options(tail, tail_pos):
            if key not in _GLOBAL_KEYS:
                raise SpecSyntaxError(f"unknown specification option {key!r}", p)
            spec_level[key] = _global_option(key, val, p)
    for key, v in spec_level.items():
        merged.setdefault(key, v)

    covariance = "independent"
    if "covariance" in merged:
        covariance, p = merged["covariance"]
        if covariance not in ("independent", "unstructured"):
            raise SpecSyntaxError(f"covariance must be independent or unstructured, got {covariance!r}", p)
    re_distribution = "normal"
    t_df = None
    if "redistribution" in merged:
        re_distribution, p = merged["redistribution"]
        if re_distribution not in ("normal", "t"):
            raise SpecSyntaxError(f"redistribution must be normal or t, got {re_distribution!r}", p)
    if "df" in merged:
        t_df = merged["df"][0]
    if re_distribution == "t" and t_df is None:
        raise SpecSyntaxError("redistribution(t) needs df()", merged["redistribution"][1])

    spec = _finalize(tuple(outcomes), covariance, re_distribution, t_df)
    return spec


def _finalize(outcomes: tuple[OutcomeSpec, ...], covariance: str, re_distribution: str, t_df: int | None) -> ModelSpec:
    # latent registry and level chain
    paths: dict[str, tuple[str, ...]] = {}
    order: list[str] = []
    for k, outcome in enumerate(outcomes):
        for c, comp in enumerate(outcome.components):
            for el in comp.elements:
                if isinstance(el, Latent):
                    if el.name in paths:
                        if paths[el.name] != el.path:
                            raise SpecValidationError(
                                f"latent {el.name} reused with a different cluster path "
                                f"({'>'.join(paths[el.name])} vs {'>'.join(el.path)}) at outcome {k + 1}, component {c + 1}"
                            )
                    else:
                        paths[el.name] = el.path
                        order.append(el.name)
    chain: tuple[str, ...] = ()
    for name in order:
        p = paths[name]
        if len(p) > len(chain):
            if chain and p[: len(chain)] != chain:
                raise SpecValidationError(f"cluster path {'>'.join(p)} of {name} does not nest inside {'>'.join(chain)}")
            chain = p
        elif p != chain[: len(p)]:
            raise SpecValidationError(f"cluster path {'>'.join(p)} of {name} does not nest inside {'>'.join(chain)}")
    latents: dict[str, LatentInfo] = {}
    counters: dict[str, int] = {}
    for name in order:
        level = paths[name][-1]
        idx = counters.get(level, 0)
        counters[level] = idx + 1
        latents[name] = LatentInfo(name, paths[name], level, idx)

    # coefficient names are unique across the whole specification
    seen: dict[str, int] = {}
    for k, outcome in enumerate(outcomes):
        for comp in outcome.components:
            if comp.coef:
                if comp.coef in seen:
                    raise SpecValidationError(f"coefficient @{comp.coef} used in outcomes {seen[comp.coef] + 1} and {k + 1}")
                seen[comp.coef] = k

    spec = ModelSpec(
        outcomes=outcomes,
        covariance=covariance,
        re_distribution=re_distribution,
        t_df=t_df,
        levels=chain,
        latents=latents,
    )
    _check_ev_dag(spec)
    _check_timevars(spec)
    return spec


def _check_ev_dag(spec: ModelSpec) -> None:
    n = len(spec.outcomes)
    edges: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, outcome in enumerate(spec.outcomes):
        for ev in outcome.ev_targets:
            j = spec.ev_target_index(ev)
            if spec.outcomes[j].family.is_survival:
                raise SpecValidationError(f"outcome {i + 1}: {ev.kind} target must not be a survival outcome")
            if j == i:
                raise SpecValidationError(f"outcome {i + 1} links {ev.kind} of itself")
            edges[i].add(j)
    state = [0] * n  # 0 unvisited, 1 on stack, 2 done

    def visit(i: int, trail: list[int]) -> None:
        state[i] = 1
        trail.append(i)
        for j in edges[i]:
            if state[j] == 1:
                cyc = trail[trail.index(j) :] + [j]
                raise SpecValidationError("cyclic expected-value reference: " + " -> ".join(str(v + 1) for v in cyc))
            if state[j] == 0:
                visit(j, trail)
        trail.pop()
        state[i] = 2

    for i in range(n):
        if state[i] == 0:
            visit(i, [])


def _time_indexed(spec: ModelSpec, k: int, _seen: frozenset = frozenset()) -> bool:
    if k in _seen:
        return False
    outcome = spec.outcomes[k]
    if outcome.has_timefn:
        return True
    return any(_time_indexed(spec, spec.ev_target_index(ev), _seen | {k}) for ev in outcome.ev_targets)


def _check_timevars(spec: ModelSpec) -> None:
    for k, outcome in enumerate(spec.outcomes):
        if outcome.family.is_survival or outcome.timevar:
            continue
        if _time_indexed(spec, k):
            raise SpecValidationError(
                f"outcome {k + 1} uses a function of time but has no timevar(); name the measurement-time column"
            )


# ---------------------------------------------------------------------------
# Rendering and specification files
# ---------------------------------------------------------------------------


def _fmt_num(x: float) -> str:
    """The shortest text that reads back as the same float."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def _element_text(el: Element) -> str:
    if isinstance(el, Covariate):
        return el.name
    if isinstance(el, Intercept):
        return "1"
    if isinstance(el, Latent):
        return f"{el.name}[{'>'.join(el.path)}]"
    if isinstance(el, EVLink):
        return f"{el.kind}[{el.target}]"
    if el.kind == "fp":
        return f"fp({' '.join(_fmt_num(p) for p in el.powers)})"
    opts = []
    if el.df is not None:
        opts.append(f"df({el.df})")
    if el.knots is not None:
        opts.append(f"knots({' '.join(_fmt_num(v) for v in el.knots)})")
    return f"rcs({' '.join(opts)})"


def _component_text(comp: Component) -> str:
    text = "#".join(_element_text(e) for e in comp.elements)
    return f"{text}@{comp.coef}" if comp.coef else text


def _family_text(fam: FamilySpec) -> str:
    opts = []
    if fam.failure is not None:
        opts.append(f"failure({fam.failure})")
    if fam.name == "rp":
        opts.append("scale(h)")
    if fam.df is not None:
        opts.append(f"df({fam.df})")
    if fam.knots is not None:
        opts.append(f"knots({' '.join(_fmt_num(v) for v in fam.knots)})")
    if fam.k is not None:
        opts.append(f"k({fam.k})")
    if fam.loglf is not None:
        opts.append(f"loglf({fam.loglf})")
    if fam.hazard is not None:
        opts.append(f"hfunction({fam.hazard})")
    if fam.cumhazard is not None:
        opts.append(f"chfunction({fam.cumhazard})")
    if fam.n_anc:
        opts.append(f"np({fam.n_anc})")
    if fam.ltrunc is not None:
        opts.append(f"ltrunc({fam.ltrunc})")
    if fam.bhazard is not None:
        opts.append(f"bhazard({fam.bhazard})")
    inner = fam.name if not opts else f"{fam.name}, {' '.join(opts)}"
    return f"family({inner})"


def render_spec(spec: ModelSpec) -> str:
    """Canonical text for a ModelSpec, the one serialized form of a
    model: ``parse_model_spec`` of it gives an equal ModelSpec. Numbers
    keep every digit; ``rp`` is always written with ``scale(h)``, its
    only scale.
    """
    groups = []
    for outcome in spec.outcomes:
        items = []
        if outcome.response:
            items.append(outcome.response)
        items.extend(_component_text(c) for c in outcome.components)
        opts = [_family_text(outcome.family)]
        if outcome.timevar is not None:
            opts.append(f"timevar({outcome.timevar})")
        if outcome.noconstant:
            opts.append("noconstant")
        groups.append(f"({' '.join(items)}, {' '.join(opts)})")
    text = " ".join(groups)
    tail = []
    if spec.covariance != "independent":
        tail.append(f"covariance({spec.covariance})")
    if spec.re_distribution != "normal":
        tail.append(f"redistribution({spec.re_distribution})")
    if spec.t_df is not None:
        tail.append(f"df({spec.t_df})")
    if tail:
        text += " , " + " ".join(tail)
    return text


def load_spec_file(path) -> ModelSpec:
    """Parse the specification text in a file, as ``save_spec_file``
    writes it.
    """
    with open(path) as fh:
        return parse_model_spec(fh.read())


def _as_spec(spec) -> ModelSpec:
    """A ModelSpec as given, or parsed from its text."""
    if isinstance(spec, ModelSpec):
        return spec
    return parse_model_spec(str(spec))


def save_spec_file(spec: ModelSpec, path) -> None:
    """Write the canonical text of a specification, which
    ``load_spec_file`` reads back as an equal ModelSpec.
    """
    with open(path, "w") as fh:
        fh.write(render_spec(spec) + "\n")


# ---------------------------------------------------------------------------
# Validation against data
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    errors: list[str]
    levels: list[tuple[str, int]]  # (level name, unit count), outermost first
    n_latents: int
    # built while checking; compile_program reuses them for a passing report
    hierarchy: Hierarchy | None = None
    outcome_rows: list[OutcomeRows] | None = None

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        lines = [f"levels: " + (", ".join(f"{n} ({c} units)" for n, c in self.levels) or "none")]
        lines.append(f"latent effects: {self.n_latents}")
        lines += [f"error: {e}" for e in self.errors]
        return "\n".join(lines)


def _referenced_columns(spec: ModelSpec, outcome: OutcomeSpec) -> list[str]:
    cols = []
    for comp in outcome.components:
        for el in comp.elements:
            if isinstance(el, Covariate):
                cols.append(el.name)
    return cols


def _response_bound(outcome: OutcomeSpec, frame: DataFrame, rows: np.ndarray) -> float | None:
    """The bound of a count or binary family's range at which every one
    of an outcome's responses sits, where the outcome has a constant: 0
    for any of them, 1 for ``bernoulli``, k for ``binomial``. There the
    likelihood keeps rising as the constant leaves for infinity.
    """
    rule = FAMILIES[outcome.family.name].response if outcome.family.name in FAMILIES else None
    if outcome.noconstant or rule not in ("counts", "binary", "trials") or rows.size == 0:
        return None
    y = frame.col(outcome.response)[rows]
    for bound in (0.0, {"binary": 1.0, "trials": outcome.family.k}.get(rule)):
        if bound is not None and np.all(y == bound):
            return bound
    return None


def validate_spec(spec: ModelSpec, frame: DataFrame) -> ValidationReport:
    """Check a parsed specification against a data frame: referenced
    columns exist, event indicators are 0/1, entry times precede event
    times, every survival outcome has an event, no count or binary
    outcome with a constant has every response at a bound of its range,
    covariates are complete on each outcome's rows. Reports the level
    tree.
    """
    errors: list[str] = []

    def columns_of(k: int) -> list[str]:
        outcome = spec.outcomes[k]
        cols = []
        if outcome.response:
            cols.append(outcome.response)
        fam = outcome.family
        cols += [c for c in (fam.failure, fam.ltrunc, fam.bhazard) if c]
        if outcome.timevar:
            cols.append(outcome.timevar)
        cols += _referenced_columns(spec, outcome)
        return cols

    for k, outcome in enumerate(spec.outcomes):
        for name in columns_of(k):
            if not frame.has(name):
                errors.append(f"outcome {k + 1}: column {name!r} not in the data")
        for c, comp in enumerate(outcome.components):
            for ev in (e for e in comp.elements if isinstance(e, EVLink)):
                try:
                    spec.ev_target_index(ev)
                except SpecValidationError as exc:
                    errors.append(f"outcome {k + 1}, component {c + 1}: {exc}")
    for name in spec.levels:
        if not frame.has(name):
            errors.append(f"level column {name!r} not in the data")
    if errors:
        return ValidationReport(errors, [], len(spec.latents))

    for k, outcome in enumerate(spec.outcomes):
        fam = outcome.family
        if fam.failure:
            d = frame.col(fam.failure)
            finite = d[np.isfinite(d)]
            if np.any((finite != 0.0) & (finite != 1.0)):
                errors.append(f"outcome {k + 1}: event indicator {fam.failure!r} has values outside {{0, 1}}")
        if fam.ltrunc and outcome.response:
            t0 = frame.col(fam.ltrunc)
            y = frame.col(outcome.response)
            mask = np.isfinite(t0) & np.isfinite(y)
            if np.any(t0[mask] >= y[mask]):
                errors.append(f"outcome {k + 1}: entry times in {fam.ltrunc!r} must precede the event times")

    hierarchy = rows_list = None
    try:
        hierarchy = build_hierarchy(frame, list(spec.levels))
        if not errors:
            rows_list = split_outcome_rows(frame, spec)
            for k, (outcome, orows) in enumerate(zip(spec.outcomes, rows_list)):
                if outcome.family.is_survival and not np.any(orows.event > 0):
                    errors.append(
                        f"outcome {k + 1}: no events in {outcome.family.failure!r} on its {orows.rows.size} rows; "
                        "a survival model needs at least one uncensored time"
                    )
                bound = _response_bound(outcome, frame, orows.rows)
                if bound is not None:
                    errors.append(
                        f"outcome {k + 1}: every response in {outcome.response!r} is {bound:g}, a bound of the "
                        f"{outcome.family.name} range, so its constant has no finite estimate; drop it with noconstant"
                    )
                for c, comp in enumerate(outcome.components):
                    for el in comp.elements:
                        if isinstance(el, Covariate):
                            vals = frame.col(el.name)[orows.rows]
                            if np.any(~np.isfinite(vals)):
                                bad = orows.rows[np.flatnonzero(~np.isfinite(vals))[0]]
                                errors.append(
                                    f"outcome {k + 1}, component {c + 1}: covariate {el.name!r} missing at data row {bad + 1}"
                                )
    except (ValueError, KeyError) as exc:
        errors.append(str(exc))

    levels = []
    if hierarchy is not None:
        levels = [(name, hierarchy.n_units(i)) for i, name in enumerate(hierarchy.levels)]
    return ValidationReport(errors, levels, len(spec.latents), hierarchy, rows_list)

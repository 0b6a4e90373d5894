"""Fuzz the user-facing scenario grammars (hypothesis).

Every scenario string a user can type — fault schedules, tenant sets,
replica profile lists, workload names, arrival processes and the CLI's
comma-separated sweep lists — must either parse or raise a
:class:`ValueError`, promptly: the hypothesis deadline turns a hang into a
failure.  Strings derived from a valid one by injecting an empty field or
repeating a key must raise, and the error must name the injected token.
Valid arrival specs survive a round trip through ``describe()``.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import WorkloadSpec
from repro.cli import _parse_float_list, _parse_int_list
from repro.faults import parse_faults
from repro.serving.fleet import ReplicaProfile
from repro.tenancy import parse_tenants
from repro.tenancy.spec import TENANT_PRIORITIES
from repro.workloads.cache import trace_key

PARSERS = {
    "faults": parse_faults,
    "tenants": parse_tenants,
    "profiles": ReplicaProfile.parse_list,
    "workload": WorkloadSpec.parse,
    "int_list": lambda text: _parse_int_list(text, "--replicas"),
    "float_list": lambda text: _parse_float_list(text, "--kv-capacity"),
}

FUZZ = settings(max_examples=300, deadline=2000)

# ------------------------------------------------------------ valid strings

_pools = st.sampled_from(["", ":decode", ":prefill"])
_fault_clauses = st.lists(
    st.builds(lambda crash, down, pool: f"{crash}:{down}{pool}",
              st.integers(0, 100_000), st.integers(1, 10_000), _pools),
    min_size=1, max_size=4).map(";".join)


@st.composite
def _fault_process(draw):
    mtbf = draw(st.integers(100, 10_000))
    items = [f"mtbf={mtbf}", f"mttr={draw(st.integers(1, 5_000))}",
             f"horizon={draw(st.integers(1, 1000 * mtbf))}"]
    items += draw(st.lists(st.sampled_from(["seed=3", "pool=prefill",
                                            "pool=decode"]),
                           max_size=1))
    return ",".join(draw(st.permutations(items)))


_tenant_fields = st.fixed_dictionaries({}, optional={
    "weight": st.integers(1, 8).map(str),
    "slo": st.integers(10, 500).map(str),
    "ttft": st.integers(0, 500).map(str),
    "exits": st.sampled_from(["true", "false"]),
    "priority": st.sampled_from(TENANT_PRIORITIES),
})


@st.composite
def _tenants(draw):
    names = draw(st.lists(st.sampled_from(["chat", "batch", "a", "b_2"]),
                          min_size=1, max_size=3, unique=True))
    clauses = []
    for name in names:
        fields = draw(_tenant_fields)
        items = [f"{key}={value}" for key, value in fields.items()]
        clauses.append(f"{name}:{','.join(items)}" if items else name)
    return ";".join(clauses)


_profiles = st.lists(
    st.builds(lambda speed, cost: speed + cost,
              st.sampled_from(["0.5", "1", "1.5", "2"]),
              st.sampled_from(["", ":1", ":0.6", ":2.5"])),
    min_size=1, max_size=4).map(",".join)

_workloads = st.sampled_from(["video", "video:urban-day", "nlp", "nlp:imdb",
                              "generative", "generative:squad"])

_int_lists = st.lists(st.integers(1, 16).map(str), min_size=1,
                      max_size=5).map(",".join)
_float_lists = st.lists(st.sampled_from(["1e9", "3e8", "0.5", "12"]),
                        min_size=1, max_size=5).map(",".join)

#: grammar -> (valid strings, field separators, list separator).
GRAMMARS = {
    "faults": (_fault_clauses, ";:", ";"),
    "fault_process": (_fault_process(), ",", ","),
    "tenants": (_tenants(), ";:,", ";"),
    "profiles": (_profiles, ",:", ","),
    "workload": (_workloads, ":", ":"),
    "int_list": (_int_lists, ",", ","),
    "float_list": (_float_lists, ",", ","),
}


def _parser(grammar):
    return PARSERS["faults" if grammar == "fault_process" else grammar]


def _names(message, text, lo, hi):
    """Whether ``message`` quotes a span of ``text`` overlapping
    ``text[lo:hi]``."""
    for quoted in re.findall(r"'([^']*)'", message):
        start = text.find(quoted)
        while quoted and start != -1:
            if start < hi and lo < start + len(quoted):
                return True
            start = text.find(quoted, start + 1)
    return False


def _raises_value_error(parse, text):
    try:
        parse(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} parsed without error")


# --------------------------------------------------------------------- fuzz

_vocabulary = st.sampled_from(
    ["mtbf", "mttr", "horizon", "seed", "pool", "prefill", "decode", "chat",
     "weight", "slo", "ttft", "exits", "priority", "true", "batch", "video",
     "nlp", "generative", "squad", "0", "1", "2.5", "1e9", "-3", "0.01",
     "100000", "nan", "inf", "=", ",", ";", ":", " ", "x"])
_scenario_text = st.one_of(
    st.text("0123456789.-+eE:;,= abcdefghijklmnopqrstuvwxyz_", max_size=40),
    st.lists(_vocabulary, max_size=14).map("".join))


@FUZZ
@given(name=st.sampled_from(sorted(PARSERS)), text=_scenario_text)
def test_scenario_strings_parse_or_raise_value_error(name, text):
    try:
        PARSERS[name](text)
    except ValueError:
        pass


@FUZZ
@given(grammar=st.sampled_from(sorted(GRAMMARS)), data=st.data())
def test_valid_scenario_strings_parse(grammar, data):
    strategy, _, _ = GRAMMARS[grammar]
    _parser(grammar)(data.draw(strategy))


@FUZZ
@given(grammar=st.sampled_from(sorted(GRAMMARS)), data=st.data())
def test_injected_empty_field_is_named(grammar, data):
    strategy, separators, list_separator = GRAMMARS[grammar]
    text = data.draw(strategy)
    # Double an existing separator, or add a leading / trailing one.
    positions = [i for i, char in enumerate(text) if char in separators]
    choice = data.draw(st.sampled_from(["leading", "trailing"]
                                       + (["double"] if positions else [])))
    if choice == "double":
        at = data.draw(st.sampled_from(positions))
        bad, lo, hi = text[:at] + text[at] + text[at:], at, at + 2
    elif choice == "leading":
        bad, lo, hi = list_separator + text, 0, 1
    else:
        bad, lo, hi = text + list_separator, len(text), len(text) + 1
    message = _raises_value_error(_parser(grammar), bad)
    assert _names(message, bad, lo, hi), (bad, message)


@FUZZ
@given(tenant=st.booleans(), data=st.data())
def test_repeated_key_is_named(tenant, data):
    if tenant:
        fields = data.draw(_tenant_fields.filter(bool))
        items = [f"{key}={value}" for key, value in fields.items()]
    else:
        items = data.draw(_fault_process()).split(",")
    repeated = data.draw(st.sampled_from(items))
    at = data.draw(st.integers(0, len(items)))
    joined = ",".join(items[:at] + [repeated] + items[at:])
    bad = f"chat:{joined}" if tenant else joined
    message = _raises_value_error(parse_tenants if tenant else parse_faults,
                                  bad)
    key = repeated.partition("=")[0]
    assert f"duplicate key {key!r}" in message, (bad, message)


# ------------------------------------------------------------ arrival specs

_ARRIVAL_KINDS = ("nlp", "generative")
_arrival_text = st.one_of(
    _scenario_text,
    st.lists(st.sampled_from(["trace", ":", "maf", "poisson", "diurnal",
                              "flash", "_", "crowd"]),
             max_size=6).map("".join),
    # trace:<path> with paths that are missing, directories or odd files.
    st.lists(st.sampled_from(["/", ".", "..", "tmp", "dev", "null", "x.csv"]),
             max_size=4).map(lambda path: "trace:" + "".join(path)))


@pytest.fixture(scope="module")
def arrival_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("arrivals") / "arrivals.csv"
    path.write_text(",".join(str(50.0 * i) for i in range(40)))
    return f"trace:{path}"


@FUZZ
@given(kind=st.sampled_from(_ARRIVAL_KINDS), process=_arrival_text)
def test_arrival_specs_materialize_or_raise_value_error(kind, process):
    try:
        WorkloadSpec(kind, requests=20, arrival_process=process).materialize()
    except ValueError:
        pass


@FUZZ
@given(kind=st.sampled_from(_ARRIVAL_KINDS), data=st.data())
def test_valid_arrival_specs_round_trip_through_describe(arrival_csv, kind,
                                                         data):
    native = "maf" if kind == "nlp" else "diurnal"
    process = data.draw(st.sampled_from(
        [None, native, "poisson", "flash_crowd", arrival_csv]))
    spec = WorkloadSpec(kind, requests=20, arrival_process=process,
                        rate=data.draw(st.sampled_from([None, 5.0, 40.0])))
    spec.materialize()
    assert trace_key(WorkloadSpec(**spec.describe())) == trace_key(spec)

"""Prompt assets, prompt assembly, response parsing, and action execution."""

import hashlib
import re
from importlib import resources

import pytest

import sqlscout.action_model.runner as action_runner
from sqlscout.action_model.artifacts import Step, advance, fingerprint, normalize_sql
from sqlscout.action_model.parser import (
    extract_json_object,
    parse_action_response,
    parse_baseline_sql,
    parse_keyword_list,
    parse_sql_payload,
)
from sqlscout.action_model.prompts import (
    build_action_prompt,
    build_baseline_prompt,
    build_keyword_prompt,
    fill,
)
from sqlscout.action_model.runner import extract_keywords, run_action
from sqlscout.core.types import ActionKind, NLQuestion, NodeState, SearchConfig
from sqlscout.errors import ContractViolation, ParseError
from sqlscout.llm_client import ScriptedModel
from sqlscout.mcts import prepare_context
from sqlscout.sql_exec import error_result, rows_result

from conftest import GOLD_SQL, sql_json

A1 = ActionKind.REPHRASE
A2 = ActionKind.SCHEMA_SELECT
A3 = ActionKind.VALUE_IDENT
A4 = ActionKind.FUNCTION_IDENT
A5 = ActionKind.SQL_GENERATE
A6 = ActionKind.SQL_REVISE
A7 = ActionKind.TERMINATE

# the templates are fixed inputs of the system: any byte change is a bug
ASSET_SHA256 = {
    "baseline.txt": "c70683b7d65597b6bf52c900a020aa54a6f09a7f7c48212bdff1743524121a71",
    "function_ident.txt": "6da473257c3ad37b6e1c42cb916987529558f12f37353b0f7f3fd6f4c6cf6171",
    "keyword_extract.txt": "8aca060cab66b6baef97fd30b9537a80be9df3ccda566754cdf45caa3515d5ba",
    "rephrase.txt": "4df829d2bf2af0ce3181f61c63117e7cbdc00cbb55ac8fecac568b6d67290ad1",
    "schema_select.txt": "d57986c2fd89cb0828e22a535a485aba168128433c7a58a9a5dba4daac5676b4",
    "sql_generate.txt": "45c2676cba56d6aec3eefe70ccd8e51904fda335eaf8cf9484d93315fdc5bef2",
    "sql_revise.txt": "79eec130954aae23fe3acfb9172c390a5f23ecb82c5d9187ac68f31988e0bf27",
    "value_ident.txt": "ee35c00697fe3ce75d0208f8ef7576bc0b9c130a5f6186a2b5f97962af41db3c",
}


def read_asset(name: str) -> str:
    root = resources.files("sqlscout.action_model").joinpath("assets")
    return root.joinpath(name).read_text(encoding="utf-8")


def test_assets_are_byte_stable():
    for name, expected in ASSET_SHA256.items():
        digest = hashlib.sha256(read_asset(name).encode("utf-8")).hexdigest()
        assert digest == expected, f"{name} changed"


def test_assets_keep_source_quirks():
    # these oddities are part of the fixed prompt text; do not "fix" them
    assert "punishble to death" in read_asset("sql_generate.txt")
    assert "Men''s 200 metres Freestyle" in read_asset("keyword_extract.txt")
    assert "Acme Corp" in read_asset("keyword_extract.txt")
    assert "San Pablo Ave" in read_asset("value_ident.txt")
    revise = read_asset("sql_revise.txt")
    assert '"sql_query": "The final SQL query that answers the question.",\n}' in revise
    assert "{EXECUTED_SQL}" in revise
    assert "{EXECUTION_RESULT}" in revise


def test_templates_declare_their_slots():
    slots = {
        "rephrase.txt": ["{QUESTION}", "{HINT}"],
        "schema_select.txt": ["{SCHEMA_CONTEXT}", "{QUESTION}", "{HINT}"],
        "value_ident.txt": ["{SCHEMA_CONTEXT}", "{QUESTION}", "{HINT}"],
        "function_ident.txt": ["{SCHEMA_CONTEXT}", "{QUESTION}", "{HINT}"],
        "sql_generate.txt": ["{SCHEMA_CONTEXT}", "{QUESTION}", "{HINT}"],
        "sql_revise.txt": ["{SCHEMA_CONTEXT}", "{QUESTION}", "{HINT}",
                           "{EXECUTED_SQL}", "{EXECUTION_RESULT}"],
        "keyword_extract.txt": ["{QUESTION}", "{HINT}"],
        "baseline.txt": ["{SCHEMA_CONTEXT}", "{QUESTION}", "{HINT}"],
    }
    for name, expected in slots.items():
        text = read_asset(name)
        for slot in expected:
            assert slot in text, f"{name} lost {slot}"


# ---- prompt assembly ----

@pytest.fixture
def state() -> NodeState:
    return NodeState()


def test_rephrase_prompt_has_question_no_schema(restaurant_catalog,
                                                restaurant_question, state):
    prompt = build_action_prompt(A1, restaurant_question, state,
                                 restaurant_catalog)
    assert restaurant_question.question in prompt
    assert restaurant_question.hint in prompt
    assert "CREATE TABLE" not in prompt
    assert "{QUESTION}" not in prompt and "{HINT}" not in prompt


def test_schema_select_prompt_shows_full_schema(restaurant_catalog,
                                                restaurant_question, state):
    prompt = build_action_prompt(A2, restaurant_question, state,
                                 restaurant_catalog)
    assert "CREATE TABLE generalinfo" in prompt
    assert "CREATE TABLE location" in prompt


def test_downstream_prompts_respect_selection(restaurant_catalog,
                                              restaurant_question, state):
    state.selected_schema = (("generalinfo", ("food_type", "city")),)
    prompt = build_action_prompt(A5, restaurant_question, state,
                                 restaurant_catalog)
    assert "CREATE TABLE generalinfo" in prompt
    assert "CREATE TABLE location" not in prompt


def test_rephrased_question_replaces_original(restaurant_catalog,
                                              restaurant_question, state):
    state.rephrased_question = "Count the thai places on san pablo ave."
    prompt = build_action_prompt(A5, restaurant_question, state,
                                 restaurant_catalog)
    assert "Count the thai places" in prompt
    assert restaurant_question.question not in prompt


def test_notes_are_appended_to_hint(restaurant_catalog, restaurant_question,
                                    state):
    state.value_notes = "Use food_type = 'thai' verbatim."
    state.function_notes = "COUNT aggregates the rows."
    prompt = build_action_prompt(A5, restaurant_question, state,
                                 restaurant_catalog)
    assert state.value_notes in prompt
    assert state.function_notes in prompt
    assert prompt.index(restaurant_question.hint) < prompt.index(state.value_notes)


def test_revision_prompt_embeds_failure(restaurant_catalog,
                                        restaurant_question, state):
    state.sql = "SELECT x FROM nope"
    state.history += (A5,)
    prompt = build_action_prompt(
        A6, restaurant_question, state, restaurant_catalog,
        execution_feedback=("SELECT x FROM nope", "Error: no such table: nope"),
    )
    assert "SELECT x FROM nope" in prompt
    assert "Error: no such table: nope" in prompt


def test_revision_prompt_requires_sql_and_feedback(restaurant_catalog,
                                                   restaurant_question, state):
    with pytest.raises(ContractViolation):
        build_action_prompt(A6, restaurant_question, state, restaurant_catalog)


def test_terminate_has_no_prompt(restaurant_catalog, restaurant_question, state):
    with pytest.raises(ContractViolation):
        build_action_prompt(A7, restaurant_question, state, restaurant_catalog)


def test_illegal_action_for_state_raises(restaurant_catalog,
                                         restaurant_question, state):
    state.sql = GOLD_SQL
    state.history += (A5,)
    with pytest.raises(ContractViolation):
        build_action_prompt(A5, restaurant_question, state, restaurant_catalog)


def test_no_unfilled_slots_anywhere(restaurant_catalog, restaurant_question):
    state = NodeState()
    slot = re.compile(r"\{[A-Z_]+\}")
    for action in (A1, A2, A3, A4, A5):
        prompt = build_action_prompt(action, restaurant_question, state,
                                     restaurant_catalog)
        assert not slot.search(prompt), f"{action} left a slot"
    assert not slot.search(build_keyword_prompt(restaurant_question))
    assert not slot.search(
        build_baseline_prompt(restaurant_question, restaurant_catalog)
    )


def test_retrieved_values_reach_schema_context(restaurant_catalog,
                                               restaurant_question, state):
    retrieved = {("generalinfo", "city"): ["san pablo"]}
    prompt = build_action_prompt(A2, restaurant_question, state,
                                 restaurant_catalog, retrieved_values=retrieved)
    assert "'san pablo'" in prompt


def test_fill_keeps_placeholders_inside_slot_values():
    out = fill("Q: {QUESTION}\nH: {HINT}\n{OTHER}",
               {"QUESTION": "what does {HINT} mean?", "HINT": "secret"})
    assert out == "Q: what does {HINT} mean?\nH: secret\n{OTHER}"


def test_prompt_slot_values_are_substituted_literally(restaurant_catalog, state):
    q = NLQuestion(question="What does {HINT} stand for?", hint="a hint",
                   db_id="restaurants")
    prompt = build_action_prompt(A1, q, state, restaurant_catalog)
    assert "What does {HINT} stand for?" in prompt
    state.sql = "SELECT x FROM nope"
    state.history += (A5,)
    prompt = build_action_prompt(
        A6, q, state, restaurant_catalog,
        retrieved_values={("generalinfo", "city"): ["{EXECUTED_SQL}"]},
        execution_feedback=("SELECT x FROM nope", "Error: no such table: nope"),
    )
    assert "'{EXECUTED_SQL}'" in prompt
    assert prompt.count("SELECT x FROM nope") == 1


# ---- parsing ----

def test_parse_rephrase_takes_last_marker(restaurant_catalog):
    raw = ("Rephrased Question: wrong draft\nthinking...\n"
           "Rephrased Question: Count the thai restaurants.")
    answer = parse_action_response(A1, raw, restaurant_catalog)
    assert answer == "Count the thai restaurants."


def test_parse_rephrase_without_marker_uses_whole_text(restaurant_catalog):
    answer = parse_action_response(A1, "  Count all of them.  ", restaurant_catalog)
    assert answer == "Count all of them."


def test_extract_json_prefers_fenced_block():
    raw = 'noise {"a": 1} more\n```json\n{"b": 2}\n```\ntail'
    assert extract_json_object(raw) == {"b": 2}


def test_extract_json_balanced_fallback():
    raw = 'thinking {"tables": {"x": 1}} done'
    assert extract_json_object(raw) == {"tables": {"x": 1}}


def test_extract_json_tolerates_trailing_comma():
    raw = '```json\n{"chain_of_thought_reasoning": "r", "revised_SQL": "SELECT 1",}\n```'
    assert extract_json_object(raw)["revised_SQL"] == "SELECT 1"


def test_extract_json_handles_braces_in_strings():
    raw = '{"sql_query": "SELECT \'{weird}\' FROM t", "n": 1}'
    assert extract_json_object(raw)["n"] == 1


def test_parse_schema_subset_normalizes_and_drops_unknown(restaurant_catalog):
    raw = ('```json\n{"GENERALINFO": ["Food_Type", "bogus_col"], '
           '"phantom": ["x"], "location": ["street_name"]}\n```')
    answer = parse_action_response(A2, raw, restaurant_catalog)
    assert answer == (
        ("generalinfo", ("food_type",)),
        ("location", ("street_name",)),
    )


def test_parse_schema_subset_empty_raises(restaurant_catalog):
    with pytest.raises(ParseError):
        parse_action_response(A2, '{"phantom": ["x"]}', restaurant_catalog)


def test_parse_sql_payload_variants():
    assert parse_sql_payload(sql_json("SELECT 1")) == "SELECT 1"
    assert parse_sql_payload('{"sql_query": "SELECT 2"}') == "SELECT 2"
    with pytest.raises(ParseError):
        parse_sql_payload('{"sql_query": ""}')
    with pytest.raises(ParseError):
        parse_sql_payload("no json here")


def test_parse_revision_round_uses_same_payload_shape(restaurant_catalog):
    raw = '{"chain_of_thought_reasoning": "fix", "sql_query": "SELECT 3",}'
    assert parse_sql_payload(raw) == "SELECT 3"
    assert parse_action_response(A6, raw, restaurant_catalog) == "SELECT 3"
    assert parse_action_response(A5, raw, restaurant_catalog) == "SELECT 3"


def test_parse_notes_trim_and_require_content(restaurant_catalog):
    answer = parse_action_response(A3, "  Values are lowercase.  ",
                                   restaurant_catalog)
    assert answer == "Values are lowercase."
    assert parse_action_response(A4, "STRFTIME needed.",
                                 restaurant_catalog) == "STRFTIME needed."
    with pytest.raises(ParseError):
        parse_action_response(A3, "   \n ", restaurant_catalog)


def test_an_answer_without_utf8_form_does_not_parse(restaurant_catalog):
    # a "\ud800" escape in the JSON decodes to a lone surrogate, which no
    # prompt, query or file can encode; so can a free-text answer hold one
    escaped = '{"sql_query": "SELECT \'\\ud800\'"}'
    for action in (A5, A6):
        with pytest.raises(ParseError, match="utf-8"):
            parse_action_response(action, escaped, restaurant_catalog)
    for action, raw in ((A1, "Rephrased Question: how many \udc80?"),
                        (A3, "values \ud83d"), (A4, "COUNT \udfff")):
        with pytest.raises(ParseError, match="utf-8"):
            parse_action_response(action, raw, restaurant_catalog)
    with pytest.raises(ParseError, match="utf-8"):
        parse_baseline_sql("<sql>SELECT '\ud800'</sql>")
    # a surrogate pair escape is one valid character
    paired = '{"sql_query": "SELECT \'\\ud83d\\ude00\'"}'
    assert parse_action_response(A5, paired, restaurant_catalog) == "SELECT '\U0001f600'"


def test_parse_keyword_list_cases():
    raw = ('["annual revenue", "Acme Corp", "United States", "2022", '
           '"financial reports", "U.S. market performance", "fiscal year"]')
    assert parse_keyword_list(raw) == [
        "annual revenue", "Acme Corp", "United States", "2022",
        "financial reports", "U.S. market performance", "fiscal year",
    ]
    assert parse_keyword_list("chatter ['a', 'b'] done") == ["a", "b"]
    assert parse_keyword_list("no list at all") == []
    # escaped quote inside a keyword
    assert parse_keyword_list('["Men\'s 200m", "x"]') == ["Men's 200m", "x"]
    assert parse_keyword_list('["dup", "dup", " dup "]') == ["dup"]


def test_parse_baseline_sql_tag_then_fence():
    raw = "<think>because</think>\n<sql>SELECT 1</sql>"
    assert parse_baseline_sql(raw) == "SELECT 1"
    raw_two = "<sql>draft</sql> text <sql>SELECT 2</sql>"
    assert parse_baseline_sql(raw_two) == "SELECT 2"
    fenced = "reasoning\n```sql\nSELECT 3\n```"
    assert parse_baseline_sql(fenced) == "SELECT 3"
    with pytest.raises(ParseError):
        parse_baseline_sql("nothing to see")


# ---- answers and fingerprints ----

def answer_fp(action, answer) -> str:
    return fingerprint(action, answer)


def test_fingerprint_ignores_sql_whitespace_and_semicolon():
    a = answer_fp(A5, "SELECT  1 ;")
    assert a == answer_fp(A5, "SELECT 1")
    assert a != answer_fp(A5, "SELECT 2")
    assert a != answer_fp(A6, "SELECT 1")


def test_fingerprint_distinguishes_actions():
    assert answer_fp(A3, "t") != answer_fp(A4, "t")


def test_fingerprint_ignores_schema_order():
    a = answer_fp(A2, (("t", ("a", "b")), ("u", ("c",))))
    assert a == answer_fp(A2, (("u", ("c",)), ("t", ("b", "a"))))
    assert a != answer_fp(A2, (("t", ("a",)), ("u", ("c",))))


def test_fingerprint_hashes_the_canonical_answer():
    # trace files carry these values: the canonical forms must not drift
    def sha(material: str) -> str:
        return hashlib.sha1(material.encode("utf-8")).hexdigest()[:16]

    assert answer_fp(A1, " Count  them ") == sha('["A1","Count them"]')
    assert answer_fp(A2, (("t", ("b", "a")),)) == sha('["A2","{\\"t\\":[\\"a\\",\\"b\\"]}"]')
    assert answer_fp(A6, "SELECT 1;") == sha('["A6","SELECT 1"]')
    assert answer_fp(A7, None) == sha('["A7"]')


def test_normalize_sql():
    assert normalize_sql("  SELECT \n 1  ; ") == "SELECT 1"


def test_advance_transitions():
    state = NodeState()
    s1 = advance(state, A1, "rq")
    assert s1.rephrased_question == "rq"
    assert state.rephrased_question is None  # original untouched
    assert state.history == ()
    s2 = advance(s1, A2, (("t", ("c",)),))
    assert s2.selected_schema == (("t", ("c",)),)
    s3 = advance(s2, A5, "SELECT 1")
    assert s3.sql == "SELECT 1"
    s4 = advance(s3, A6, "SELECT 2")
    assert s4.sql == "SELECT 2"
    s5 = advance(s4, A7, None)
    assert s5.sql == "SELECT 2"
    assert s5.history == (A1, A2, A5, A6, A7)
    assert s1.history == (A1,)


# ---- action execution ----

def action_ctx(q, catalog, cfg, model, executor=None):
    return prepare_context(q, cfg, model, catalog, executor)


def a5_state(sql: str) -> NodeState:
    state = NodeState()
    state.sql = sql
    state.history += (A5,)
    return state


def run_states(action, state, ctx) -> list[tuple[NodeState, str]]:
    """run_action's (step, raw) pairs as (child state, raw), as expansion
    advances a new step."""
    return [(advance(state, action, step.answer), raw)
            for step, raw in run_action(action, state, ctx)]


def test_run_action_samples_and_drops_bad_parses(restaurant_catalog,
                                                 restaurant_question):
    model = ScriptedModel()
    model.add("punishble", [sql_json("SELECT 1"), "garbage", sql_json("SELECT 1")])
    cfg = SearchConfig(n_expansion=3)
    ctx = action_ctx(restaurant_question, restaurant_catalog, cfg, model)
    out = run_action(A5, NodeState(), ctx)
    # each parsed sample is a step, not yet a state; it keeps its prompt
    prompt = model.calls[0][0]
    assert [step for step, _ in out] == [Step("SELECT 1", prompt)] * 2
    out = run_states(A5, NodeState(), ctx)
    assert all(state.sql == "SELECT 1" for state, _ in out)
    assert all(state.history == (A5,) for state, _ in out)
    # samples 0, 1, 2 of one prompt at the expansion temperature
    assert len({c[0] for c in model.calls}) == 1
    assert [c[1:] for c in model.calls] == [(0.8, i, "A5") for i in range(3)]


# nests deeper than the json module's recursion limit
DEEP_JSON = '{"sql_query": "SELECT 1", "x": ' + "[" * 3000 + "]" * 3000 + "}"
DEEP_FENCED = f"```json\n{DEEP_JSON}\n```"


@pytest.mark.parametrize("raw", [DEEP_JSON, DEEP_FENCED], ids=["bare", "fenced"])
def test_too_deeply_nested_json_is_a_parse_error(raw):
    with pytest.raises(ParseError):
        parse_sql_payload(raw)


def test_run_action_drops_only_the_too_deep_samples(restaurant_catalog,
                                                    restaurant_question):
    model = ScriptedModel()
    model.add("punishble", [sql_json("SELECT 1"), DEEP_JSON, DEEP_FENCED,
                            sql_json("SELECT 2")])
    ctx = action_ctx(restaurant_question, restaurant_catalog,
                     SearchConfig(n_expansion=4), model)
    out = run_action(A5, NodeState(), ctx)
    assert [step.answer for step, _ in out] == ["SELECT 1", "SELECT 2"]


def test_run_action_terminate_calls_no_model(restaurant_catalog,
                                             restaurant_question):
    model = ScriptedModel()  # would raise on any call
    ctx = action_ctx(restaurant_question, restaurant_catalog, SearchConfig(), model)
    out = run_states(A7, a5_state("SELECT 1"), ctx)
    assert len(out) == 1
    state, raw = out[0]
    assert raw == ""
    assert state.history == (A5, A7)
    assert state.sql == "SELECT 1"
    assert model.calls == []


def revise(q, catalog, executor, model, sql: str, **cfg_kw):
    """The revision steps of `sql`: (answer, prompt it answered) and raw text."""
    cfg = SearchConfig(sql_timeout_secs=5.0, **cfg_kw)
    return run_action(A6, a5_state(sql), action_ctx(q, catalog, cfg, model, executor))


def test_revision_clean_entry_uses_zero_rounds(restaurant_catalog,
                                               restaurant_question,
                                               restaurant_executor):
    model = ScriptedModel()  # no rules: any call would fail the test
    out = revise(restaurant_question, restaurant_catalog, restaurant_executor,
                 model, GOLD_SQL, n_expansion=2, n_revision=3)
    assert len(out) == 2  # one child per chain
    for step, raw in out:
        assert step == Step(GOLD_SQL, None)  # no round, so no prompt
        assert raw == ""
    assert model.calls == []


def test_revision_repairs_in_one_round(restaurant_catalog, restaurant_question,
                                       restaurant_executor):
    model = ScriptedModel()
    model.add("correcting a SQL query", sql_json(GOLD_SQL))
    out = revise(restaurant_question, restaurant_catalog, restaurant_executor,
                 model, "SELEC broken", n_expansion=1, n_revision=3)
    assert len(out) == 1
    step = out[0][0]
    assert step.answer == GOLD_SQL
    assert len(model.calls) == 1
    assert step.prompt == model.calls[0][0]
    assert "SELEC broken" in step.prompt and "Error:" in step.prompt


def test_revision_multi_round_feedback_chains(restaurant_catalog,
                                              restaurant_question,
                                              restaurant_executor):
    half_fixed = "SELECT COUNT(*) FROM generalinfo WHERE no_such_col = 1"
    model = ScriptedModel()
    model.add(lambda p: "correcting a SQL query" in p and "no_such_col" in p,
              sql_json(GOLD_SQL))
    model.add("correcting a SQL query", sql_json(half_fixed))
    out = revise(restaurant_question, restaurant_catalog, restaurant_executor,
                 model, "SELEC broken", n_expansion=1, n_revision=5)
    assert len(out) == 1
    step = out[0][0]
    assert step.answer == GOLD_SQL
    assert len(model.calls) == 2
    # the prompt that answered is the last failing attempt's, not the original's
    assert step.prompt == model.calls[1][0]
    assert half_fixed in step.prompt


def test_revision_round_budget_is_hard(restaurant_catalog, restaurant_question,
                                       restaurant_executor):
    model = ScriptedModel()
    model.add("correcting a SQL query", sql_json("STILL broken"))
    out = revise(restaurant_question, restaurant_catalog, restaurant_executor,
                 model, "SELEC broken", n_expansion=1, n_revision=4)
    # round 2 answers the query it was asked to revise: the chain ends there
    assert len(model.calls) == 2
    assert len(out) == 1
    # round 2's prompt answered the query the step carries
    assert out[0][0] == Step("STILL broken", model.calls[1][0])


def test_revision_chain_ends_at_its_fixed_point(restaurant_catalog,
                                                restaurant_question,
                                                restaurant_executor,
                                                monkeypatch):
    prompts: list[str] = []

    def counting_build(action, *args, **kwargs):
        prompt = build_action_prompt(action, *args, **kwargs)
        if action is A6:
            prompts.append(prompt)
        return prompt

    monkeypatch.setattr(action_runner, "build_action_prompt", counting_build)
    model = ScriptedModel()
    model.add("correcting a SQL query", sql_json("STILL broken"))
    out = revise(restaurant_question, restaurant_catalog, restaurant_executor,
                 model, "SELEC broken", n_expansion=1, n_revision=10)
    assert len(prompts) == 2  # not n_revision: later rounds could change nothing
    assert len(model.calls) == 2
    assert [step.answer for step, _ in out] == ["STILL broken"]


def test_revision_chain_ends_at_an_unparseable_answer(restaurant_catalog,
                                                      restaurant_question,
                                                      restaurant_executor):
    half_fixed = "SELECT COUNT(*) FROM generalinfo WHERE no_such_col = 1"
    model = ScriptedModel()
    model.add(lambda p: "correcting a SQL query" in p and "no_such_col" in p,
              "not json at all")
    model.add("correcting a SQL query", sql_json(half_fixed))
    out = revise(restaurant_question, restaurant_catalog, restaurant_executor,
                 model, "SELEC broken", n_expansion=1, n_revision=10)
    assert len(model.calls) == 2
    assert len(out) == 1
    step, raw = out[0]
    assert step.answer == half_fixed
    assert raw == sql_json(half_fixed)  # the last answer that parsed
    # and the prompt it answered: round 1's, not the unparseable round 2's
    assert step.prompt == model.calls[0][0]
    assert "SELEC broken" in step.prompt


def test_revision_round_budget_is_hard_for_new_answers(restaurant_catalog,
                                                       restaurant_question,
                                                       restaurant_executor):
    calls: list[str] = []

    class NewAnswerEachRound:
        def sample(self, prompt, temperature, max_tokens, sample_index, tag=""):
            calls.append(prompt)
            return sql_json(f"STILL broken {len(calls)}")

    out = revise(restaurant_question, restaurant_catalog, restaurant_executor,
                 NewAnswerEachRound(), "SELEC broken", n_expansion=1, n_revision=4)
    assert len(calls) == 4  # exactly n_revision, never more
    assert len(set(calls)) == 4
    assert len(out) == 1
    assert out[0][0] == Step("STILL broken 4", calls[3])
    assert "STILL broken 3" in calls[3]


def test_revision_all_unparseable_yields_nothing(restaurant_catalog,
                                                 restaurant_question,
                                                 restaurant_executor):
    model = ScriptedModel()
    model.add("correcting a SQL query", "not json at all")
    out = revise(restaurant_question, restaurant_catalog, restaurant_executor,
                 model, "SELEC broken", n_expansion=2, n_revision=2)
    assert out == []


def test_extract_keywords_is_deterministic_call(restaurant_question):
    model = ScriptedModel()
    model.add("extract keywords", '["thai", "albany"]')
    assert extract_keywords(restaurant_question, model) == ["thai", "albany"]
    prompt, temperature, index, tag = model.calls[0]
    assert temperature == 0.0
    assert index == 0
    assert tag == "keywords"
    assert restaurant_question.question in prompt

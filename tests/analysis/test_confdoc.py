"""Golden tests for the conf-directive consistency checker (RA5xx).

These build a miniature repo (parser + scenario generator + README)
so the cross-referencing runs against a controlled surface; RA503
noise from the real allowlist is filtered per-assertion.
"""

from .helpers import analyze_source

SELECT = ["conf-directives"]

_PARSER = """
def server_config_from_text(tree):
    for directive, value in tree.items():
        if directive == "worker_processes":
            pass
        elif directive in ("qat_batch_size", "qat_submit_max_retries"):
            pass
        elif directive == "qat_mystery_knob":
            pass
"""

_SCENARIO = """
def sample(ov):
    ov["worker_processes"] = 4
    ov["qat_batch_size"] = 8
    ov["qat_mystery_knob"] = 1
"""

_README = """
| `worker_processes` | workers |
| `qat_batch_size` | batch |
| `qat_submit_max_retries` | retries |
"""


def run(tmp_path, parser=_PARSER, scenario=_SCENARIO, readme=_README):
    return analyze_source(
        tmp_path,
        {"repro/server/conf_text.py": parser,
         "repro/testing/scenario.py": scenario},
        select=SELECT, readme=readme)


def by_code(result, code):
    return [f for f in result.findings if f.code == code]


def test_documented_and_sampled_directives_pass(tmp_path):
    result = run(tmp_path)
    # qat_mystery_knob is sampled but undocumented -> exactly one RA501
    ra501 = by_code(result, "RA501")
    assert len(ra501) == 1 and "qat_mystery_knob" in ra501[0].message


def test_flags_undocumented_directive(tmp_path):
    result = run(tmp_path, readme="| `worker_processes` | workers |\n")
    names = [f.message.split("'")[1] for f in by_code(result, "RA501")]
    assert names == ["qat_batch_size", "qat_submit_max_retries",
                     "qat_mystery_knob"]


def test_flags_unsampled_directive(tmp_path):
    # qat_submit_max_retries is in the real ALLOWLIST; qat_mystery_knob is
    # sampled; drop worker_processes from the scenario: it is in
    # SAMPLED_VIA (ScenarioSpec.workers) so it must still pass.
    result = run(tmp_path, scenario="def sample(ov):\n    pass\n")
    names = [f.message.split("'")[1] for f in by_code(result, "RA502")]
    assert names == ["qat_batch_size", "qat_mystery_knob"]


def test_flags_stale_allowlist_entry(tmp_path):
    # the tiny parser doesn't parse (e.g.) 'default_algorithm', so the
    # real allowlist entry for it must be reported stale
    result = run(tmp_path)
    stale = {f.message.split("'")[1] for f in by_code(result, "RA503")}
    assert "default_algorithm" in stale


def test_absent_parser_module_disables_checker(tmp_path):
    result = analyze_source(
        tmp_path, {"repro/sim/mod.py": "x = 1\n"},
        select=SELECT, readme=_README)
    assert result.findings == []

"""The lint suite's own tests: fixture corpus, suppressions, baseline
workflow, CLI, and the self-scan that keeps ``src/`` clean."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (RULES, apply_baseline, load_baseline, scan_file,
                        scan_paths, write_baseline)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
BASELINE = REPO_ROOT / "lint.baseline.json"

# rule id -> fixture stem (the stem carries any path token the rule
# scopes to, e.g. det104's "analysis"). Single-file fixtures; the
# project rules that need more than one module live in FIXTURE_DIRS.
FIXTURE_STEMS = {
    "DET101": "det101",
    "DET102": "det102",
    "DET103": "det103",
    "DET104": "det104_analysis",
    "DUR201": "dur201_store",
    "DUR202": "dur202_journal",
    "CONC301": "conc301",
    "CONC302": "conc302",
    "CONC303": "conc303",
    "CONC304": "conc304",
    "PROTO401": "proto401",
    "PROTO402": "proto402",
    "PROTO403": "proto403_journal",
    "OBS501": "obs501",
    "FLOW602": "flow602",
    "LINT001": "lint001",
}

# rule id -> fixture *directory* stem: these project rules only show
# their teeth across a module boundary (a taint source hidden in an
# allowlisted helper; a writer and reader pair).
FIXTURE_DIRS = {
    "FLOW601": "flow601",
    "PROTO404": "proto404",
}


def test_obs501_quiet_inside_trace_module(tmp_path):
    # The defining module is allowlisted: its convenience wrappers
    # construct spans for callers to enter.
    target = tmp_path / "trace.py"
    target.write_text(
        "def span(name):\n"
        "    return object()\n"
        "def convenience(name):\n"
        "    return span(name)\n",
        encoding="utf-8")
    assert scan_file(target) == []


def test_det103_allowlists_obs_directory(tmp_path):
    # obs/ modules may timestamp their sidecar trace files; the same
    # source outside obs/ still fires.
    source = ("import time\n"
              "def publish_stamp():\n"
              "    return time.time()\n")
    inside = tmp_path / "obs" / "trace.py"
    inside.parent.mkdir()
    inside.write_text(source, encoding="utf-8")
    outside = tmp_path / "elsewhere.py"
    outside.write_text(source, encoding="utf-8")
    assert scan_file(inside) == []
    assert [f.rule for f in scan_file(outside)] == ["DET103"]


def test_every_rule_has_a_fixture_pair():
    assert set(FIXTURE_STEMS) | set(FIXTURE_DIRS) == set(RULES)
    assert not set(FIXTURE_STEMS) & set(FIXTURE_DIRS)
    for stem in FIXTURE_STEMS.values():
        assert (FIXTURES / f"{stem}_pos.py").is_file()
        assert (FIXTURES / f"{stem}_neg.py").is_file()
    for stem in FIXTURE_DIRS.values():
        assert (FIXTURES / f"{stem}_pos").is_dir()
        assert (FIXTURES / f"{stem}_neg").is_dir()


@pytest.mark.parametrize("rule_id", sorted(FIXTURE_STEMS))
def test_rule_fires_on_positive_fixture(rule_id):
    findings = scan_file(FIXTURES / f"{FIXTURE_STEMS[rule_id]}_pos.py")
    fired = {f.rule for f in findings}
    # Fires, and nothing *else* fires — fixtures stay single-purpose.
    assert fired == {rule_id}


@pytest.mark.parametrize("rule_id", sorted(FIXTURE_STEMS))
def test_rule_quiet_on_negative_fixture(rule_id):
    findings = scan_file(FIXTURES / f"{FIXTURE_STEMS[rule_id]}_neg.py")
    assert findings == []


@pytest.mark.parametrize("rule_id", sorted(FIXTURE_DIRS))
def test_project_rule_fires_on_positive_fixture_dir(rule_id):
    target = FIXTURES / f"{FIXTURE_DIRS[rule_id]}_pos"
    findings = scan_paths([target], root=target)
    assert {f.rule for f in findings} == {rule_id}


@pytest.mark.parametrize("rule_id", sorted(FIXTURE_DIRS))
def test_project_rule_quiet_on_negative_fixture_dir(rule_id):
    target = FIXTURES / f"{FIXTURE_DIRS[rule_id]}_neg"
    assert scan_paths([target], root=target) == []


@pytest.mark.parametrize("call, flagged", [
    ("np.random.PCG64()", True),
    ("np.random.PCG64(seed)", False),
    ("np.random.Philox(key=seed)", False),
    ("np.random.SFC64(seed)", False),
    ("np.random.rand()", True),
])
def test_det101_numpy_bit_generators(tmp_path, call, flagged):
    # A seeded bit generator is explicit state, not numpy's legacy
    # global RNG; unseeded, it draws OS entropy like default_rng().
    target = tmp_path / "draw.py"
    target.write_text(f"import numpy as np\n\ndef draw(seed):\n"
                      f"    return {call}\n", encoding="utf-8")
    assert [f.rule for f in scan_file(target)] == (["DET101"] if flagged else [])


@pytest.mark.parametrize("ctor, rules", [
    ("np.random.PCG64()  # repro-lint: disable=DET101", {"FLOW602"}),
    ("np.random.PCG64(7)", set()),
])
def test_flow602_agrees_on_numpy_bit_generators(tmp_path, ctor, rules):
    (tmp_path / "mod.py").write_text(
        "import hashlib\n\nimport numpy as np\n\n\n"
        "def draw():\n"
        f"    bits = {ctor}\n"
        "    return np.random.Generator(bits).random()\n\n\n"
        "def fingerprint():\n"
        "    return hashlib.sha256(str(draw()).encode()).hexdigest()\n",
        encoding="utf-8")
    assert {f.rule for f in scan_paths([tmp_path], root=tmp_path)} == rules


def test_flow601_sees_the_batch_writer(tmp_path):
    # The positive fixture's shape with the pack writer as the sink:
    # the clock still hides in an allowlisted obs/ helper, and a pack
    # is as durable as a single atomic publish.
    shutil.copytree(FIXTURES / "flow601_pos" / "obs", tmp_path / "obs")
    (tmp_path / "sink.py").write_text(
        "from obs.stamps import fresh_stamp\n\n"
        "from repro.runtime.atomicio import atomic_write_pack\n\n\n"
        "def publish(directory):\n"
        "    stamp = fresh_stamp()\n"
        "    atomic_write_pack(directory, [repr(stamp).encode()])\n",
        encoding="utf-8")
    findings = scan_paths([tmp_path], root=tmp_path)
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("FLOW601", "sink.py", 8)]
    assert "atomic_write_pack()" in findings[0].message


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------

def test_inline_suppression_silences_one_line(tmp_path):
    source = FIXTURES / "det103_pos.py"
    target = tmp_path / "det103_case.py"
    patched = source.read_text(encoding="utf-8").replace(
        "return time.time(), datetime.now()",
        "return time.time(), datetime.now()"
        "  # repro-lint: disable=DET103")
    target.write_text(patched, encoding="utf-8")
    assert scan_file(target) == []


def test_inline_suppression_is_rule_specific(tmp_path):
    target = tmp_path / "det103_case.py"
    target.write_text(
        "import time\n"
        "def stamp():\n"
        "    return time.time()  # repro-lint: disable=DET101\n",
        encoding="utf-8")
    # The wrong-rule suppression doesn't silence DET103 — and is
    # itself dead, which LINT001 now says out loud.
    assert {f.rule for f in scan_file(target)} == {"DET103", "LINT001"}


def test_filewide_suppression(tmp_path):
    target = tmp_path / "det103_case.py"
    target.write_text(
        "# repro-lint: disable-file=DET103\n"
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"
        "def stamp2():\n"
        "    return time.time()\n",
        encoding="utf-8")
    assert scan_file(target) == []


# ----------------------------------------------------------------------
# baseline workflow
# ----------------------------------------------------------------------

def test_baseline_round_trip(tmp_path):
    findings = scan_file(FIXTURES / "det102_pos.py")
    assert findings
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, findings)
    loaded = load_baseline(baseline_path)
    assert [f.baseline_key() for f in loaded] == \
        [f.baseline_key() for f in findings]
    assert apply_baseline(findings, loaded) == []


def test_baseline_respects_multiplicity(tmp_path):
    target = tmp_path / "det103_case.py"
    target.write_text(
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n",
        encoding="utf-8")
    one = scan_file(target)
    assert len(one) == 1
    # Duplicate the offending line: same baseline key, twice.
    target.write_text(
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"
        "def stamp2():\n"
        "    return time.time()\n",
        encoding="utf-8")
    two = scan_file(target)
    assert len(two) == 2
    # A baseline holding ONE occurrence excuses exactly one.
    assert len(apply_baseline(two, one)) == 1


def test_baseline_survives_line_renumbering(tmp_path):
    target = tmp_path / "det103_case.py"
    target.write_text(
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n",
        encoding="utf-8")
    baseline = scan_file(target)
    # Insert unrelated lines above: linenos shift, keys don't.
    target.write_text(
        "import time\n"
        "\n"
        "UNRELATED = 1\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n",
        encoding="utf-8")
    assert apply_baseline(scan_file(target), baseline) == []


# ----------------------------------------------------------------------
# self-scan: src/ stays clean modulo the committed baseline
# ----------------------------------------------------------------------

def test_self_scan_of_src_is_clean():
    findings = scan_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    baseline = load_baseline(BASELINE)
    fresh = apply_baseline(findings, baseline)
    assert fresh == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in fresh)


def test_committed_baseline_has_no_det_or_dur_entries():
    # The acceptance bar: determinism/durability findings get FIXED,
    # never baselined.
    baseline = load_baseline(BASELINE)
    offending = [f for f in baseline if f.rule.startswith(("DET", "DUR"))]
    assert offending == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_clean_scan_exits_zero(capsys):
    rc = main(["lint", str(FIXTURES / "det101_neg.py")])
    assert rc == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_findings_exit_one_text(capsys):
    rc = main(["lint", str(FIXTURES / "det101_pos.py")])
    assert rc == 1
    assert "DET101" in capsys.readouterr().out


def test_cli_json_format(capsys):
    rc = main(["lint", "--format", "json",
               str(FIXTURES / "det102_pos.py")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["findings"]) > 0
    assert {f["rule"] for f in payload["findings"]} == {"DET102"}


def test_cli_baseline_subtracts(tmp_path, capsys):
    fixture = str(FIXTURES / "det102_pos.py")
    baseline_path = tmp_path / "b.json"
    assert main(["lint", "--write-baseline", str(baseline_path),
                 fixture]) == 0
    capsys.readouterr()
    rc = main(["lint", "--baseline", str(baseline_path), fixture])
    assert rc == 0
    assert "baselined" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


def test_cli_missing_path_exits_two(tmp_path, capsys):
    rc = main(["lint", str(tmp_path / "nope.txt")])
    assert rc == 2
    assert "lint" in capsys.readouterr().err


def test_unparseable_file_reports_lint000(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n", encoding="utf-8")
    findings = scan_file(target)
    assert [f.rule for f in findings] == ["LINT000"]


# ----------------------------------------------------------------------
# docs stay in sync
# ----------------------------------------------------------------------

def test_readme_catalogs_every_rule():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for rule_id in RULES:
        assert rule_id in readme, f"README rule catalog misses {rule_id}"

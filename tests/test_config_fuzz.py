"""Config text under both YAML loaders, and a fuzz of hostile config documents through the CLI."""

import contextlib
import copy
import io

import pytest
import yaml
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from layerft import cli
from layerft.configio import emit_config, parse_config
from layerft.errors import ParseError

from conftest import CONFIG_DIR

TEXTS = {path.stem: path.read_text() for path in sorted(CONFIG_DIR.glob("*.cfg"))}
LOADERS = ["SafeLoader", "CSafeLoader"]
MALFORMED = {
    "unclosed-flow": "problem: {r: 1\nlayers: []\n",
    "bad-indent": "layers:\n  - left: 0\n   right: 1\n",
    "unclosed-list": "problem: [r: 1\n",
    "tab": "\tproblem: {r: 1}\n",
    "nested-colon": "a: b: c\n",
    "int-digit-limit": "problem: {r: " + "9" * 5000 + "}\n",
    "deep-nesting": "problem: " + "[" * 3000 + "]" * 3000 + "\n",  # past Python's recursion limit
    "mixed-type-sections": "1: 2\nzz: 3\n",
}


@pytest.fixture(params=LOADERS)
def loader(request, monkeypatch):
    """Make parse_config use one loader: CSafeLoader when PyYAML has libyaml, else SafeLoader."""
    if request.param == "SafeLoader":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    return request.param


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_both_loaders_read_every_config_alike(monkeypatch, name):
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    text = TEXTS[name]
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
    long_form = emit_config(*parse_config(text))
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert emit_config(*parse_config(text)) == long_form


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_yaml_is_parse_error_under_each_loader(loader, case):
    with pytest.raises(ParseError):
        parse_config(MALFORMED[case])


# --- fuzz ---------------------------------------------------------------------

HOSTILE = [
    float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 1e-308, 0, -1, -1.0, 10**400,
    True, None, "abc", "1+2j", "nan", [], {}, [[]], [1, 2], {"x": 1},
    [[1.0, 2.0], [0.0, 1.0]],          # non-Hermitian
    [[-1.0, 0.0], [0.0, -2.0]],        # negative definite
    [[1e308, 1e308], [1e308, 1e308]],
]
KEYS = ["r", "a2", "g2", "left", "right", "mode", "layers", "problem", "beta0", "bogus", 7, None]
# raw text spliced into a document
TOKENS = ["1e400", "-1e400", "9" * 400, "9" * 5000, ".nan", "[", "]", "{", ": :", "\t", "- ",
          "&a [1]", "*a", "!!binary aGk=", "2001-13-45", "'", "\n  x: 1\n"]


def _slots(node):
    """Every (container, key) of a parsed document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, value in items:
        yield node, key
        yield from _slots(value)


def run(argv):
    """cli.main(argv) in process: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


@pytest.mark.parametrize("name", ["threelayer_r2", "lambda_interface", "fullaxis_twolayer", "sine"])
def test_every_field_replaced_by_a_confusing_value(tmp_path, name):
    """Each mapping field in turn, replaced by one value of each type: exit 0 or 3, never 5."""
    fields = [(i, key) for i, (node, key) in enumerate(_slots(yaml.safe_load(TEXTS[name])))
              if isinstance(node, dict)]
    path, out = tmp_path / "hostile.cfg", str(tmp_path / "long.cfg")
    for i, key in fields:
        for value in (True, 10**400, -1e308, -1, float("nan"), "abc", None, [], {}):
            doc = yaml.safe_load(TEXTS[name])
            node, _ = list(_slots(doc))[i]
            node[key] = value
            path.write_text(yaml.safe_dump(doc))
            rc, err = run(["emit", "--config", str(path), "--output", out])
            assert rc in (0, 3), f"{key} = {value!r}: exit {rc}: {err}"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_hostile_config_text_fuzz(tmp_path, data):
    """emit parses and validates a config without transforming: exit 0 or 3, never 5."""
    name = data.draw(st.sampled_from(sorted(TEXTS)), label="config")
    text = TEXTS[name]
    how = data.draw(st.sampled_from(["truncate", "splice", "mutate"]), label="how")
    event(how)
    if how == "truncate":
        text = text[:data.draw(st.integers(0, len(text)), label="cut")]
    elif how == "splice":
        at = data.draw(st.integers(0, len(text)), label="at")
        text = text[:at] + data.draw(st.sampled_from(TOKENS), label="token") + text[at:]
    else:
        doc = yaml.safe_load(text)
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            slots = list(_slots(doc))
            if not slots:
                break
            node, key = data.draw(st.sampled_from(slots), label="slot")
            kind = data.draw(st.sampled_from(["drop", "replace", "rename"]), label="kind")
            if kind == "drop":
                del node[key]
            elif kind == "replace":
                node[key] = copy.deepcopy(data.draw(st.sampled_from(HOSTILE), label="value"))
            elif isinstance(node, dict):
                node[data.draw(st.sampled_from(KEYS), label="new key")] = node.pop(key)
        text = yaml.safe_dump(doc)
    path = tmp_path / "hostile.cfg"
    path.write_text(text)
    rc, err = run(["emit", "--config", str(path), "--output", str(tmp_path / "long.cfg")])
    assert rc in (0, 3), f"exit {rc}: {err}\n--- config ---\n{text}"

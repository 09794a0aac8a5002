"""The README's library quick tour runs as written."""

import json
import os
import re

from invobs import preset, scenario_to_dict

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _tour() -> str:
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_tour_runs(tmp_path, monkeypatch, capsys):
    doc = dict(scenario_to_dict(preset("explicit-complementary")), t_end=0.5)
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    exec(compile(_tour(), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("RunSummary(final_angle=")

"""The README's JSON examples parse as the formats they document."""

import json
import re
from pathlib import Path

from opfuse.data import parse_corpus
from opfuse.model import ModelConfig
from opfuse.sweep import DEFAULT_SPACE, load_space

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_json_blocks_parse_as_the_formats_they_document(tmp_path):
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    record, config, space = (json.loads(block) for block in blocks)
    corpus, issues = parse_corpus([json.dumps(record)])
    assert issues == [] and [r.id for r in corpus.records] == [record["id"]]
    ModelConfig.from_json(config)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space), encoding="utf-8")
    assert load_space(path) == DEFAULT_SPACE

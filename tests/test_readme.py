"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.M | re.S)
    # The StarNetwork example, then the MacTrace example, which reuses its
    # names.  The third block is skipped: it runs beacon-defaults for 1,000
    # simulated seconds and all 125 runs of s6-msdu at 5,000 packets per
    # device, and the experiment and CLI tests cover those calls on
    # cut-down inputs.
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)       # the trace example writes its files here
    namespace = {}
    for block in blocks[:2]:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["row"].generated == 8 * 500
    assert (tmp_path / "trace.tsv").is_file() and (tmp_path / "copy.tsv").is_file()

"""Every config the CI workflow writes inline, as a shell heredoc, still parses
and builds: a key removed from the package fails here, not on the runner."""

import os
import re
import textwrap

import pytest

from prescurv.config import build_problem, parse_config

WORKFLOW = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        ".github", "workflows", "tests.yml")
# cat > "$RUNNER_TEMP/<name>.cfg" <<'EOF' ... EOF
HEREDOC = re.compile(r"""cat > "\$RUNNER_TEMP/([\w-]+)\.cfg" <<'EOF'\n(.*?)^[ \t]*EOF$""",
                     re.DOTALL | re.MULTILINE)


def inline_configs():
    with open(WORKFLOW, encoding="utf-8") as fh:
        return {name: textwrap.dedent(body) for name, body in HEREDOC.findall(fh.read())}


def test_the_workflow_writes_its_two_configs_inline():
    assert sorted(inline_configs()) == ["headline96", "round128"]


@pytest.mark.parametrize("name", sorted(inline_configs()))
def test_an_inline_workflow_config_builds(name):
    build_problem(parse_config(inline_configs()[name]))  # a stale or bad key raises ConfigError

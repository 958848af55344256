"""Documentation health: intra-repo markdown links resolve, and the pages
the code references by name actually exist."""

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_intra_repo_markdown_links_resolve():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_doc_links.py")],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 broken link(s)" in result.stdout


def test_one_declared_python_floor():
    """The package metadata, the README and the lowest interpreter CI
    tests name the same minimum Python (the core's ``slots`` dataclasses
    need 3.10)."""

    def version(text):
        return tuple(int(part) for part in text.split("."))

    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    (declared,) = re.findall(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M)
    readme = (REPO_ROOT / "README.md").read_text()
    (stated,) = re.findall(r"Requires Python ≥ ([\d.]+?)\.?\s", readme)
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    (matrix,) = re.findall(r"^\s+python-version: \[(.*)\]$", ci, re.M)
    tested = min(version(v) for v in re.findall(r'"([\d.]+)"', matrix))
    assert version(declared) == version(stated) == tested, (declared, stated, tested)


def test_documented_operator_pages_exist():
    docs = REPO_ROOT / "docs"
    for page in (
        "usage.md",
        "architecture.md",
        "paper_mapping.md",
        "observability.md",
        "service.md",
    ):
        assert (docs / page).exists(), page


def test_observability_doc_matches_the_schema():
    """The documented schema tag and phase names must track the code."""
    from repro.core.metrics import PHASES

    text = (REPO_ROOT / "docs" / "observability.md").read_text()
    assert "repro.stats/v1" in text
    for phase in PHASES:
        assert phase in text
    for surface in ("--stats-json", "snapshot()"):
        assert surface in text


def test_observability_doc_lists_the_runtime_metrics():
    """Every instrument a CollectorWatch registers is in the metric table,
    and the pages that explain the policy name the function that applies it."""
    from repro.core.metrics import MetricsRegistry, parse_metric_key
    from repro.core.runtime import CollectorWatch

    metrics = MetricsRegistry()
    CollectorWatch(metrics).close()
    text = (REPO_ROOT / "docs" / "observability.md").read_text()
    names = {
        parse_metric_key(key)[0]
        for kind in metrics.snapshot().values()
        for key in kind
    }
    assert len(names) == 4
    for name in names:
        assert f"`{name}" in text, f"metric {name} undocumented"
    for page in ("architecture.md", "usage.md"):
        assert "relax_collector()" in (REPO_ROOT / "docs" / page).read_text()


def test_service_doc_matches_the_wire_protocol():
    """docs/service.md must document every control frame, every status
    query and every status field -- the page is the normative spec, so it
    tracks the code symbol-for-symbol."""
    from repro.service import protocol, status

    text = (REPO_ROOT / "docs" / "service.md").read_text()
    assert protocol.SERVICE_MAGIC.decode().strip() in text
    for name in protocol.TAG_NAMES.values():
        assert name in text, f"frame {name} undocumented"
    # ... and the wire tables list no frame the code does not speak, so a
    # retired frame cannot linger in the spec.
    tabled = re.findall(r"^\| `0x[0-9a-f]{2}` \| `([A-Z_]+)` \|", text, re.M)
    assert tabled, "wire tables not found"
    stale = set(tabled) - set(protocol.TAG_NAMES.values())
    assert not stale, f"wire table documents frames the code lacks: {stale}"
    for query in status.KNOWN_QUERIES:
        assert f"`{query}`" in text, f"status query {query} undocumented"
    # The gateway's counts live in the status document only: its metrics
    # section lists no service.* instrument (the gateway registers none).
    metrics_section = text[text.index("## 6.") : text.index("## 7.")]
    assert "status" in metrics_section
    assert not re.findall(r"`service\.[a-z_.]+`", metrics_section)
    # The backpressure contract and the drain guarantee are the two
    # load-bearing operational promises -- keep them on the page.
    for promise in ("Laggards", "byte-identical"):
        assert promise in text
    # The status schema: section 4 names every field a gateway serves,
    # and its `service` / `budget` / `lag` bullets name nothing else, so
    # a retired field cannot linger in the spec.
    from repro.service import ServiceConfig, create_gateway

    document = status.status_document(create_gateway(ServiceConfig()))
    assert set(document) == {"service", "budget", "lag", "verifier"}
    schema = text[text.index("## 4.") : text.index("## 5.")]
    for section in ("service", "budget", "lag"):
        for field in document[section]:
            assert f"`{field}`" in schema, f"status field {section}.{field}"
        bullet = re.search(
            rf"^\* `{section}` —(.*?)(?=^\* |\Z)", schema, re.M | re.S
        ).group(1)
        stale = set(re.findall(r"`([a-z_]+)`", bullet)) - set(document[section])
        assert not stale, f"{section} documents fields it does not serve: {stale}"

"""Import-graph guard: a process imports what it runs.

A store process (``repro serve`` / ``follow`` / ``query --connect`` /
``compact``, every e2e benchmark trial) must not load the paper's domain
model, and nothing loads scipy until one of the three statistics that
use it is called.  One stray top-level ``import`` silently undoes that,
so every case here runs in a fresh interpreter and asserts on
``sys.modules`` — counts of what was loaded, never wall-clock time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"
SUBPACKAGES = [name for name in repro.__all__ if name != "__version__"]

STORE = "import repro.tsdb, repro.serve, repro.replication"
E2E_FIXTURE = (
    "import repro.dataport, repro.lorawan, repro.mqtt, repro.replication, "
    "repro.serve, repro.simclock, repro.tsdb"
)
DOMAIN = "import repro.core, repro.analytics"

#: A fixed study input; the expected numbers were recorded with scipy
#: imported at module level, before the import moved into the functions.
STATISTICS = """
import numpy as np
from repro.analytics import correlation_study, trend
rng = np.random.default_rng(5)
t = np.arange(200) * 3600
jam = rng.uniform(0.0, 10.0, 200)
co2 = 400.0 + 0.01 * (t / 3600.0) + 0.8 * jam + rng.normal(0.0, 5.0, 200)
"""
CORRELATION = (
    STATISTICS + "s = correlation_study(co2, jam, cadence_s=3600)\n"
    "result = [s.pearson_r, s.pearson_p, s.spearman_rho, s.best_lag_s, s.n]"
)
TREND = (
    STATISTICS + "tr = trend(co2, t)\n"
    "result = [tr.slope_per_day, tr.intercept, tr.significant]"
)


def _loaded(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; its ``sys.modules`` names
    plus whatever it bound to ``result``."""
    script = (
        "import json, sys\nresult = None\n" + code + "\n"
        "print(json.dumps({'modules': sorted(sys.modules), 'result': result}))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _under(modules: list[str], prefix: str) -> list[str]:
    return [m for m in modules if m == prefix or m.startswith(prefix + ".")]


@pytest.mark.parametrize(
    "code, forbidden",
    [
        pytest.param("import repro", [f"repro.{n}" for n in SUBPACKAGES],
                     id="root"),
        pytest.param(
            STORE,
            ["scipy", "networkx", "repro.analytics", "repro.viz", "repro.core",
             "repro.sensors", "repro.streams", "repro.integration",
             "repro.region.hub"],
            id="store",
        ),
        pytest.param(E2E_FIXTURE, ["scipy", "repro.analytics", "repro.core"],
                     id="e2e-fixture"),
        pytest.param(
            "import repro.cli\nrepro.cli.build_parser()",
            ["scipy", "repro.core", "repro.analytics"],
            id="cli-parser",
        ),
        pytest.param(DOMAIN, ["scipy"], id="domain-model"),
    ],
)
def test_import_loads_nothing_it_does_not_run(code, forbidden):
    modules = _loaded(code)["modules"]
    stray = {p: hits[:3] for p in forbidden if (hits := _under(modules, p))}
    assert not stray, f"{code!r} loaded {stray}"


@pytest.mark.parametrize(
    "code, expected",
    [
        pytest.param(
            CORRELATION,
            [0.3731767460535891, 5.259002067214443e-08, 0.3841041026025651, 0, 200],
            id="correlation_study",
        ),
        pytest.param(
            TREND, [0.08249815425094817, 404.5453975375439, False], id="trend"
        ),
    ],
)
def test_scipy_loads_on_first_statistic_with_the_same_numbers(code, expected):
    out = _loaded(code)
    assert _under(out["modules"], "scipy.stats")
    assert out["result"] == pytest.approx(expected, rel=1e-12)


class TestRootNameTable:
    def test_every_exported_name_resolves(self):
        # In a fresh interpreter, so each name goes through the table;
        # `serve` and `replication` were in neither the import list nor
        # `__all__` before it (`repro.serve` raised AttributeError).
        out = _loaded(
            "import repro\nfrom repro import *\n"
            "result = [n for n in repro.__all__"
            " if globals()[n] is not getattr(repro, n)]"
        )
        assert out["result"] == []
        assert {"repro.serve", "repro.replication"} <= set(out["modules"])

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            repro.nonesuch

    def test_table_and_dir_list_every_subpackage(self):
        on_disk = {
            p.parent.name for p in (SRC / "repro").glob("*/__init__.py")
        }
        assert set(SUBPACKAGES) == on_disk
        assert len(on_disk) == 15
        assert set(repro.__all__) <= set(dir(repro))

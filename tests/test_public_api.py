import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import manetopt as mo

MODULES = sorted(info.name for info in pkgutil.iter_modules(mo.__path__))

README = Path(__file__).resolve().parent.parent / "README.md"

# One-element wrappers of the batch entry points, JSON and CSV writers that no
# scenario called and the explicit pilot simulation that the closed-form
# estimate replaced, with the module that held each.
REMOVED = {
    "channels": ("save_dataset", "load_dataset", "_links_flat", "_links_unflat"),
    "ensemble": ("infer", "EnsembleResult", "_starts"),
    "pgd": ("pgd_step", "run_pgd", "PgdTrajectory", "write_trajectory_csv"),
    "pilots": (
        "PilotBlock", "simulate_pilot_rx", "lmmse_estimate", "block_topology",
        "make_pilots", "_received", "_estimates",
    ),
    "power": ("save_power_matrix", "load_power_matrix"),
    "rates": ("first_hop_rate", "gain", "later_hop_rate", "message_rate", "_check_hop"),
    "training": ("loss_grad_mu", "_estimate_entries"),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # The benchmark's tracer looks each `__all__` entry up with a default, so
    # a stale entry would silently drop out of its trace.
    module = importlib.import_module(f"manetopt.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_removed_names_are_gone():
    for name, removed in REMOVED.items():
        module = importlib.import_module(f"manetopt.{name}")
        assert [n for n in removed if hasattr(module, n) or hasattr(mo, n)] == []
    assert not hasattr(mo.Topology, "link_count")
    assert not hasattr(mo.Topology, "transmitters")
    # pilots follow from the channels, channel_var from each noise profile
    assert list(inspect.signature(mo.lmmse_estimates).parameters) == ["channels", "noises", "rngs"]
    # the starts of many seeds at once, as infer_batch draws them
    assert list(inspect.signature(mo.ensemble.member_starts).parameters) == [
        "topology", "ensemble_size", "seeds",
    ]
    assert "block_index" not in mo.ChannelRealization.__dataclass_fields__


def test_removed_public_names_are_in_the_readme_table():
    # Every public removed name has a row in the README's "Removed names"
    # table, so the two lists cannot drift apart.
    section = README.read_text().split("### Removed names", 1)[1].split("\n#", 1)[0]
    cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| ")]
    listed = set(re.findall(r"\w+", " ".join(cells)))
    public = [n for removed in REMOVED.values() for n in removed if not n.startswith("_")]
    assert [n for n in public if n not in listed] == []

"""Golden outputs: the CLI artifacts of every fixture, pinned by sha256.

``test_acceptance_9_determinism`` compares two runs of the same revision;
this file compares against digests recorded once, so any change in the
bytes of ``network.json``, ``network.svg`` or ``cocycle.json`` (or in the
verdict of a non-realizable fixture) fails here.  ``VERIFY_STAGES`` pins
the stage list of ``toricnets verify --seed 0 --report json`` (names,
statuses, details and order), hashed as the benchmark's holonomy-sweep
gate hashes it.  ``GENERATED_ARTIFACTS`` pins the three artifacts beyond
the fixtures, on three seeded generated problems.  Refactors must leave
every digest unchanged.

To print the table for the current code (only when an output change is
intended): ``PYTHONPATH=src python tests/test_golden.py``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from support import FIXTURES, generated_documents  # noqa: E402

from toricnets.cli import main  # noqa: E402

# first Betti number of each realizable fixture's cover
BETTI_ONE = {"p2_n3": 0, "p1p1_n4": 1, "fan5_n5": 2, "fan7_n7": 4,
             "line_bundle_r1": 0}
NOT_REALIZABLE = ("p2_n1", "p2_split_n0")
ARTIFACTS = ("network.json", "network.svg", "cocycle.json")


def _runs(name):
    """(label, argv tail) of every CLI run recorded for a fixture."""
    b1 = BETTI_ONE.get(name, 0)
    return [("build", ["build"]),
            ("nonabelianize", ["nonabelianize"]),
            ("nonabelianize-5/3", ["nonabelianize",
                                   "--holonomy", ",".join(["5/3"] * b1)])]


def _run(name, label, argv, outdir):
    out = outdir / label.replace("/", "_")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([argv[0], "--input", str(FIXTURES / f"{name}.json"),
                     "--out", str(out), "--report", "json"] + argv[1:])
    report = json.loads(buf.getvalue())
    failed = [s["name"] for s in report["stages"] if s["status"] == "fail"]
    digests = {a: hashlib.sha256((out / a).read_bytes()).hexdigest()
               for a in ARTIFACTS if (out / a).exists()}
    return {"exit": code, "failed": failed, "sha256": digests}


def observe(name, outdir):
    return {label: _run(name, label, argv, outdir)
            for label, argv in _runs(name)}


def verify_stages(name):
    """sha256 of the stage list of ``toricnets verify --seed 0``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["verify", "--input", str(FIXTURES / f"{name}.json"),
              "--seed", "0", "--report", "json"])
    stages = json.loads(buf.getvalue())["stages"]
    return hashlib.sha256(
        json.dumps(stages, sort_keys=True).encode()).hexdigest()


GOLDEN = {
    "fan5_n5": {
        "build": {"exit": 0, "failed": [], "sha256": {
            "network.json":
                "4a33ad1f638b2eb00e041cf3c4b0b37109d230b25190fb1d9de9a4ea76aeea08",
            "network.svg":
                "4e9e7163e7f1b267b3fcaa1ac34c4e6de721eeabf4a5239309e3b97e432d4c8c",
        }},
        "nonabelianize": {"exit": 0, "failed": [], "sha256": {
            "cocycle.json":
                "715384e28fcee27bf7e1aa70fe8b6aae9313209eaae2eb149ec4a91097d98cb4",
        }},
        "nonabelianize-5/3": {"exit": 0, "failed": [], "sha256": {
            "cocycle.json":
                "92d8a9f8bcbad5478fd4764698ec03eeb2ac17c251c521ced7b5feb22efeb74d",
        }},
    },
    "fan7_n7": {
        "build": {"exit": 0, "failed": [], "sha256": {
            "network.json":
                "ad01725a70b6b82c4df0ce2bf13d54dd1682d65461bf6e980dd536ef052e7172",
            "network.svg":
                "4ab068bf5eea78cd64a7ce06bf9459b15e62a14c492e332992b881964c234e2b",
        }},
        "nonabelianize": {"exit": 0, "failed": [], "sha256": {
            "cocycle.json":
                "470654ff8ce873a347399eaf301be166c63364cd3b9160c7376a5ae8dda28ea4",
        }},
        "nonabelianize-5/3": {"exit": 0, "failed": [], "sha256": {
            "cocycle.json":
                "5807fcf7d021ebbd9e6372dc50517ba4ad7e6073f4b5e593c3750dbde5bf635d",
        }},
    },
    "line_bundle_r1": {
        "build": {"exit": 0, "failed": [], "sha256": {
            "network.json":
                "ff4c11d84e7532a37858363ed54b241b508d187cf2ec6fb306d4e41a7abccd03",
            "network.svg":
                "ca645bfb6955e91fc3d7f456ee4580295d53a239774e6633944da8db2c3b8cec",
        }},
        "nonabelianize": {"exit": 0, "failed": [], "sha256": {
            "cocycle.json":
                "90aa056dc48156edc4ff479b2d540c5940430b9bb61af8b24c3c94a01bb5b928",
        }},
        "nonabelianize-5/3": {"exit": 0, "failed": [], "sha256": {
            "cocycle.json":
                "90aa056dc48156edc4ff479b2d540c5940430b9bb61af8b24c3c94a01bb5b928",
        }},
    },
    "p1p1_n4": {
        "build": {"exit": 0, "failed": [], "sha256": {
            "network.json":
                "7a76039f04d952d42f8f49be2c3e545f4a7156f59058fad21abbe2a32f0af240",
            "network.svg":
                "abffaaeb72e9bb366a2d9bcd631e938e39adea1696df0172f53a343fa5e9c57e",
        }},
        "nonabelianize": {"exit": 0, "failed": [], "sha256": {
            "cocycle.json":
                "b146377eace77841ba5c6e0f535860ccb40da6bb1dcfcd6997faaff46b295c24",
        }},
        "nonabelianize-5/3": {"exit": 0, "failed": [], "sha256": {
            "cocycle.json":
                "99fa728fea0965b77d53f72b76f22b07bb754ca2482e06b5c03a7c076d38d779",
        }},
    },
    "p2_n1": {
        "build": {"exit": 1, "failed": ["build"], "sha256": {}},
        "nonabelianize": {"exit": 1, "failed": ["build"], "sha256": {}},
        "nonabelianize-5/3": {"exit": 1, "failed": ["build"], "sha256": {}},
    },
    "p2_n3": {
        "build": {"exit": 0, "failed": [], "sha256": {
            "network.json":
                "e9d822659d4f69ffea55c75410fc8ea0ee3bbd0faeb1c87829fab0e17e2bc88a",
            "network.svg":
                "a834a77c85090d49ddc99bb0b9db0bbf7aa7ca11e48d0ffdc884dbf9c0408a64",
        }},
        "nonabelianize": {"exit": 0, "failed": [], "sha256": {
            "cocycle.json":
                "030e679f7efd1eaf3486fe68bd1e2487a80c6a20e77d405b8f9ded225690660c",
        }},
        "nonabelianize-5/3": {"exit": 0, "failed": [], "sha256": {
            "cocycle.json":
                "030e679f7efd1eaf3486fe68bd1e2487a80c6a20e77d405b8f9ded225690660c",
        }},
    },
    "p2_split_n0": {
        "build": {"exit": 1, "failed": ["build"], "sha256": {}},
        "nonabelianize": {"exit": 1, "failed": ["build"], "sha256": {}},
        "nonabelianize-5/3": {"exit": 1, "failed": ["build"], "sha256": {}},
    },
}

VERIFY_STAGES = {
    "fan5_n5":
        "1eb72498e7feb115d500ff9ed4c80893568acbc1a90d68f93090fa15642b046b",
    "fan7_n7":
        "ebe870119d318ce52fa5f91d17bac22c38ec4d8c8822c5b3b2fa469d42d10957",
    "line_bundle_r1":
        "c32b30639e5152ce874c66578d5251e390f2cf91be9def7e6b30f7e9811386fd",
    "p1p1_n4":
        "f22fa00ed0eda4fd456abd8f2df4889bb3d0c9103d00f435eb69d97951a8778a",
    "p2_n1":
        "e73c329c3174476065e2be05626f5d153ba47f51f7bbf93fa988bea242bcded1",
    "p2_n3":
        "a55722a1341ef287852c577b951bb88eec894aada2624b101650c7c466bf9fa2",
    "p2_split_n0":
        "9e335ecc2467668b9793ac1526a1426a1b0dbb6269430441c40bf13f1e716f82",
}


# ``network.json`` and ``network.svg`` of ``toricnets build`` and
# ``cocycle.json`` of ``toricnets nonabelianize`` on seeded generated
# problems, with the holonomies the generator chose: shape -> sha256
GENERATED_ARTIFACTS = {
    (12, 12): {
        "network.json":
        "b262deb49b5847829035317ef66abd78b0ee3270bd80aa084158ad940307292f",
        "network.svg":
        "5d78b44f0236befb18e5ce7bd4d2e493a2fc263f3f163a87247dab0cf7c4544f",
        "cocycle.json":
        "13298cf0732165383c9dc18ce434ec7832003e44155b5d537f8099fc153249d8"},
    (9, 6): {
        "network.json":
        "d64efef3fb3f7b5361b356b98b0e43a4aff7e067965f557c690ceb187e88982e",
        "network.svg":
        "0d9aa8e6c263620f1903304dee3bbf29e0d5a31bf2b9b82c3560659f4204ee95",
        "cocycle.json":
        "49cee14a4cb7ea39ac7ea3ead6d5922ccaef8833e4bedf2b5f1b65933c120a8f"},
    (7, 5): {
        "network.json":
        "f3cde5c614a97515cf37b6768f1ed5e09e953f7556367e5eea6d6a630cff8452",
        "network.svg":
        "0c7827e4a97f708d5fa80373e63725810d1e96b69917722321fcca8323f5926e",
        "cocycle.json":
        "2645fa289dc56bfdc1266b4f2ee927591cdcc248e40b3192d4e6593d38acd9ff"},
}


def generated_artifacts(outdir):
    """sha256 of every artifact written for each generated problem."""
    out = {}
    for shape, doc in generated_documents("cocycle", 16, 2):
        problem = outdir / f"problem{shape}.json"
        problem.write_text(json.dumps(doc))
        for command in ("build", "nonabelianize"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--input", str(problem),
                             "--out", str(outdir / f"out{shape}")])
            assert code == 0, (shape, command)
        out[shape] = {a: hashlib.sha256(
            (outdir / f"out{shape}" / a).read_bytes()).hexdigest()
            for a in ARTIFACTS}
    return out


def test_golden_generated_artifacts(tmp_path):
    assert generated_artifacts(tmp_path) == GENERATED_ARTIFACTS


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(name, tmp_path):
    assert observe(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(VERIFY_STAGES))
def test_golden_verify_stages(name):
    assert verify_stages(name) == VERIFY_STAGES[name]


def test_golden_table_covers_every_fixture():
    stems = sorted(p.stem for p in FIXTURES.glob("*.json"))
    assert sorted(GOLDEN) == stems and sorted(VERIFY_STAGES) == stems
    for name in NOT_REALIZABLE:
        for run in GOLDEN[name].values():
            assert run["exit"] == 1 and run["failed"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        table = {p.stem: observe(p.stem, Path(d) / p.stem)
                 for p in sorted(FIXTURES.glob("*.json"))}
    print(json.dumps(table, indent=4, sort_keys=True))
    print(json.dumps({p.stem: verify_stages(p.stem)
                      for p in sorted(FIXTURES.glob("*.json"))},
                     indent=4, sort_keys=True))
    with tempfile.TemporaryDirectory() as d:
        print(generated_artifacts(Path(d)))

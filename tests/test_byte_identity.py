"""Every CLI output of every fixture, pinned by sha256 per (document, command).

The matrix is each fixture × validate/build/nonabelianize/verify/render ×
json/text reports × {no flag, ``--holonomy 3/2,2,5/7,4``, ``--seed 3``},
plus each realizable fixture with its own built ``network.json`` embedded
(``<name>+network``), run through validate and render under the same six
variants.  A run is its exit code, its stdout and stderr with the output
root replaced by ``<out>``, and the bytes of every file it wrote; one
digest covers the six runs of a (document, command).  ``test_golden``
pins the artifacts; this pins the reports around them too, so a refactor
that moves a stage, a detail or a line of text fails here.

To print the table for the current code (only when an output change is
intended): ``PYTHONPATH=src python tests/test_byte_identity.py``.
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

from support import FIXTURES, REALIZABLE  # noqa: E402

from toricnets.cli import main  # noqa: E402

COMMANDS = ("validate", "build", "nonabelianize", "verify", "render")
EMBEDDED_COMMANDS = ("validate", "render")
FLAGS = {"plain": [], "holonomy": ["--holonomy", "3/2,2,5/7,4"],
         "seed": ["--seed", "3"]}
REPORTS = ("json", "text")
PLACEHOLDER = "<out>"


def documents(root):
    """(name, path, commands) of every document in the matrix.

    An embedded document is its fixture with the ``network.json`` that
    ``build`` writes for it spliced in byte for byte as its network.
    """
    docs = [(p.stem, p, COMMANDS) for p in sorted(FIXTURES.glob("*.json"))]
    for name in REALIZABLE:
        built = root / "built" / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["build", "--input", str(FIXTURES / f"{name}.json"),
                         "--out", str(built)]) == 0
        problem = (FIXTURES / f"{name}.json").read_text().lstrip()
        path = root / "docs" / f"{name}+network.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"network": ' + (built / "network.json").read_text()
                        + ", " + problem[1:])
        docs.append((path.stem, path, EMBEDDED_COMMANDS))
    return docs


def _run(root, doc, path, command, flag, report):
    out = root / "runs" / doc / command / f"{flag}-{report}"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main([command, "--input", str(path), "--out", str(out),
                     "--report", report] + FLAGS[flag])
    written = sorted(p for p in out.rglob("*") if p.is_file()) \
        if out.exists() else []
    return {"exit": code,
            "stdout": stdout.getvalue().replace(str(root), PLACEHOLDER),
            "stderr": stderr.getvalue().replace(str(root), PLACEHOLDER),
            "artifacts": {str(p.relative_to(out)):
                          hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in written}}


def observe(root):
    """sha256 of the runs of each (document, command), keyed "doc command"."""
    table = {}
    for doc, path, commands in documents(root):
        for command in commands:
            runs = [_run(root, doc, path, command, flag, report)
                    for flag in FLAGS for report in REPORTS]
            table[f"{doc} {command}"] = hashlib.sha256(
                json.dumps(runs, sort_keys=True).encode()).hexdigest()
    return table


# Recorded before the track was kept edge by edge.  The nonabelianize
# entries of p2_n3, p1p1_n4, fan5_n5 and line_bundle_r1 were re-pinned
# once, when a wrong holonomy count given by --holonomy moved from the
# error stage to a holonomies stage: their --holonomy 3/2,2,5/7,4 runs
# name their last stage "holonomies", and nothing else in them changed.
GOLDEN = {
    'fan5_n5 validate':
        '2f319f4b756657aa42567b42f5c41d703cc77bd1be4e75abd5e989bf2e7d078d',
    'fan5_n5 build':
        '149e9b51252515fde51ac7ae0c581e1f79996513acdfdf42a2396fb280fafe6b',
    'fan5_n5 nonabelianize':
        '835ae6d9939a3cb791bc4e58cad7acc89467878c867ad184da8bc76fb215a546',
    'fan5_n5 verify':
        '0ab18425193842fb28f4826d95fc2f81265cf685cde24e10b20fe4ed2ac329a9',
    'fan5_n5 render':
        '3d2f77916b7777ed5b1a963707b54ece523bf1abc4eb16f23f0e99d9cbb8b30a',
    'fan7_n7 validate':
        '2f319f4b756657aa42567b42f5c41d703cc77bd1be4e75abd5e989bf2e7d078d',
    'fan7_n7 build':
        'bd6666eaf601fc45da08846958ab4e5efffe301b638cd2383dd0e3070f0a71b4',
    'fan7_n7 nonabelianize':
        '1e3dc1417e3e33f54d3c47990605d20590c4d65211f976f040feb5bc90e7ba40',
    'fan7_n7 verify':
        'eaa2aa5d709156a70324d36ae2b55cc3e95f7ecc5892f6eef1ca0ec38e793b18',
    'fan7_n7 render':
        '38ff281acb36def9016b6ce21659a48f09caf235d21df05ead364db8e27cd420',
    'line_bundle_r1 validate':
        '2f319f4b756657aa42567b42f5c41d703cc77bd1be4e75abd5e989bf2e7d078d',
    'line_bundle_r1 build':
        '585dfc4b12b521bb048e6ab6b0f5bd7fa44682dd9120a447b825e6e2510bd607',
    'line_bundle_r1 nonabelianize':
        '837dd2bda9a9f00017f810aac8a26099d54cad14271f675a0e7ee23b1e4fcec5',
    'line_bundle_r1 verify':
        '7ab81e3b8f1f37c85b0c29a99df5345452b12d36c384a14988b14f5f30347060',
    'line_bundle_r1 render':
        '6c01b532b56d7f175de01e7a17e22d60b2d7cab6f92dc6055975d7dafeed0ebe',
    'p1p1_n4 validate':
        '2f319f4b756657aa42567b42f5c41d703cc77bd1be4e75abd5e989bf2e7d078d',
    'p1p1_n4 build':
        '573cbcbc1b4d24cf3b8bef73009618eb6f1c80ae5507176898456a36101f6861',
    'p1p1_n4 nonabelianize':
        '42d373d4d15d7b384b6937f7e321b0d6ce1040d241421f8dd877c76f762152bd',
    'p1p1_n4 verify':
        'e6954aa28924647d2f9b47a27e9f6ddf64d6704b8406571905c9424d3c9a02ab',
    'p1p1_n4 render':
        '691ac917819508ee0237dfe96f325d933fc5dbcc606b12c412bbdfc4eafe12bf',
    'p2_n1 validate':
        '2f319f4b756657aa42567b42f5c41d703cc77bd1be4e75abd5e989bf2e7d078d',
    'p2_n1 build':
        '98e08b1e10ef907a57fd25f1a7f80a3fe02d69e573bb7477cfc6a05a4cb2b2b3',
    'p2_n1 nonabelianize':
        '98e08b1e10ef907a57fd25f1a7f80a3fe02d69e573bb7477cfc6a05a4cb2b2b3',
    'p2_n1 verify':
        '98e08b1e10ef907a57fd25f1a7f80a3fe02d69e573bb7477cfc6a05a4cb2b2b3',
    'p2_n1 render':
        'dd4503775afcb38cb2181391aede905f47d36d75d7b747fcff2daeabbd12a5c2',
    'p2_n3 validate':
        '2f319f4b756657aa42567b42f5c41d703cc77bd1be4e75abd5e989bf2e7d078d',
    'p2_n3 build':
        '9d0ba930fd8f313b19efa88723f3de83da7153e50bee74ff26fa9048a0414494',
    'p2_n3 nonabelianize':
        'c3534efd988fd65f2d972b13c703e2785e8920d8af0f290ed1194437ddec168a',
    'p2_n3 verify':
        '71558be2dcd6aad01ce12ff069c7520fac2b7956fc7cb38709591e938b6a6a04',
    'p2_n3 render':
        'b41e5cc1c686f0e170ea1844047f8ffb30858bc0489f8cde10f1c6c8650ebf57',
    'p2_split_n0 validate':
        '2f319f4b756657aa42567b42f5c41d703cc77bd1be4e75abd5e989bf2e7d078d',
    'p2_split_n0 build':
        '099b6606e402c73f5b446bff370a5b041e7128d9b807143694a2a8f0a9667565',
    'p2_split_n0 nonabelianize':
        '099b6606e402c73f5b446bff370a5b041e7128d9b807143694a2a8f0a9667565',
    'p2_split_n0 verify':
        '099b6606e402c73f5b446bff370a5b041e7128d9b807143694a2a8f0a9667565',
    'p2_split_n0 render':
        '9b08e693e2995e90b6827d0f70a6f32fe351ae25ce6736290e662f4862965b85',
    'fan5_n5+network validate':
        '3e86b0da9bef072698057e1167c9d9bbf8e89d458864ca040dac7bb1c257c171',
    'fan5_n5+network render':
        '976e29b97d0eb4c68027b626c9c88c2180cebb53ffcea0fe969df3cc3808b634',
    'fan7_n7+network validate':
        '3e86b0da9bef072698057e1167c9d9bbf8e89d458864ca040dac7bb1c257c171',
    'fan7_n7+network render':
        'e0c4e8f508a1473e37782f1e308f77c1c79d0208786c5eea3d952ce61752cc7c',
    'line_bundle_r1+network validate':
        '3e86b0da9bef072698057e1167c9d9bbf8e89d458864ca040dac7bb1c257c171',
    'line_bundle_r1+network render':
        'c1bbf265d23f7a7587f2e1360aa0cb601541a2af7f5362ac554694743aa1c8fb',
    'p1p1_n4+network validate':
        '3e86b0da9bef072698057e1167c9d9bbf8e89d458864ca040dac7bb1c257c171',
    'p1p1_n4+network render':
        '18ed5b794eb5e7c66a389f805c7795a4fa6b49ca0347172b0ccd3adf1c5af5aa',
    'p2_n3+network validate':
        '3e86b0da9bef072698057e1167c9d9bbf8e89d458864ca040dac7bb1c257c171',
    'p2_n3+network render':
        'a9ee209470008fee7f63c85b929afb62d26bb6c9381239d8cde34d753ca2e7ec',
}


def test_every_cli_run_gives_its_pinned_bytes(tmp_path):
    observed = observe(tmp_path)
    assert sorted(observed) == sorted(GOLDEN)
    assert {k: v for k, v in observed.items() if GOLDEN[k] != v} == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        for key, digest in observe(Path(d)).items():
            print(f"    {key!r}:\n        {digest!r},")

import hashlib

import pytest

from support import load

from toricnets.builder import build_network, empty_network
from toricnets.errors import InvariantViolated
from toricnets.render import render_svg

GOLDEN = {
    "p2_n3": "a834a77c85090d49ddc99bb0b9db0bbf7aa7ca11e48d0ffdc884dbf9c0408a64",
    "p1p1_n4": "abffaaeb72e9bb366a2d9bcd631e938e39adea1696df0172f53a343fa5e9c57e",
    "fan5_n5": "4e9e7163e7f1b267b3fcaa1ac34c4e6de721eeabf4a5239309e3b97e432d4c8c",
}


def test_polytope_only_figure(r1):
    net, layout = empty_network(r1.disk)
    svg = render_svg(r1.disk, net, layout)
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 1 + r1.fan.n  # boundary + spokes


def test_network_figures_match_golden_hashes():
    for name, want in GOLDEN.items():
        spec = load(name)
        net, layout = build_network(spec.tms, spec.disk)
        svg = render_svg(spec.disk, net, layout)
        got = hashlib.sha256(svg.encode()).hexdigest()
        assert got == want, f"{name}: figure changed ({got})"


def test_wall_count_in_figure(fan5, fan5_built):
    net, layout, _ = fan5_built
    svg = render_svg(fan5.disk, net, layout)
    colored = svg.count('stroke="#1f5fbf"') + svg.count('stroke="#bf1f2f"')
    assert colored == 9
    assert svg.count("stroke-dasharray") >= 3 + 5  # cuts dashed + spokes

def test_a_network_is_drawn_only_with_its_own_layout(p2, p2_built):
    # one drawing path: the disk alone, or a network with its own layout
    net, layout, _ = p2_built
    other, _ = empty_network(p2.disk)
    for drawn, cuts in ((None, layout), (net, other.layout), (net, None)):
        with pytest.raises(InvariantViolated):
            render_svg(p2.disk, drawn, cuts)
    assert render_svg(p2.disk) == render_svg(p2.disk, None, None)

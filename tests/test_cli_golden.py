"""Golden hashes of the CLI's CSV tables.

Each case runs one fast invocation in process and compares the SHA-256 of
the CSV it writes with a hash recorded from an earlier release of the
code.  Any change in a certified value, a family size or the float
rendering shows up here as a changed byte.  Chain files are passed by a
relative path (the chain's path is written into integrate.csv), so the
run changes into a fresh directory first.

To re-record after an intended output change, print
``hashlib.sha256(path.read_bytes()).hexdigest()`` for each case and say in
the change log which tables moved and why.
"""

import hashlib
from pathlib import Path

import pytest

from gaugeint import gallery, save_current
from gaugeint.cli import main

# name: (argv, table written, exit code, SHA-256 of the table)
CASES = {
    "integrate_x": (
        ["integrate"], "integrate.csv", 0,
        "713260bd49ef5940adbb699c78d2c7c006d76bafc32e36b36213476ff3b1addf"),
    "integrate_sqsin": (
        ["integrate", "--fn", "sqsin", "--eps", "1e-2"], "integrate.csv", 0,
        "f6d0185b9cfbae8b5eec2fa369e40c081b58711fbb64461c03cd3a12f92457b5"),
    "integrate_full_family": (
        ["integrate", "--fn", "sqsin", "--eps", "1e-2", "--tau", "1e-3"],
        "integrate.csv", 0,
        "62dff09b92bd61bb312b31f087b5c26a9f6bf5aa8a118dfd46ec387c04bfa221"),
    "integrate_dirichlet": (
        ["integrate", "--fn", "dirichlet", "--eps", "1e-2"], "integrate.csv", 0,
        "66b7c80e7a4828b896510f73a684770e7d88bfdc073b11a3c0d2b1d00b75c5bf"),
    "integrate_proportional": (
        ["integrate", "--fn", "x2", "--schedule", "proportional:0.5,0.01",
         "--eps", "1e-2"], "integrate.csv", 0,
        "48a0e217eb54d4b488f631a721c63fbc34604b11f8bb15057d679836f47f73ef"),
    "integrate_chain": (
        ["integrate", "--current", "circle.cur", "--fn", "x1", "--eps", "1e-2"],
        "integrate.csv", 0,
        "8106fb57825f74bf749efbb5396c22d2662ff4ac839ecfcce8008f854f12a319"),
    "integrate_chain_fail": (
        ["integrate", "--current", "zigzag.cur", "--fn", "norm",
         "--schedule", "uniform:0.5", "--eps", "1e-9"], "partial_sums.csv", 2,
        "d6c86891669fe6d7615a9eb84e681337ab1bd74277697f4c18b273f50356d9f6"),
    "audit": (
        ["audit", "--eps", "1e-2", "--samples", "4"], "audit.csv", 0,
        "589bb786e9acc9776a76a306789bbd5ad1677352b94001b6ad7caf179e6d91a5"),
    "partition": (
        ["partition", "--eps", "1e-2"], "partition.csv", 0,
        "275db97a3178a1f656d7a93938190f1ba3d3ec59dc4cae256e6692c4a2f3d6ee"),
    "partition_tau": (
        ["partition", "--eps", "1e-2", "--tau", "1e-3"], "partition.csv", 0,
        "aef84906f79780b497ad61f3c80724b8f7eebfeb157ed5ea4b91ca95dd127828"),
    "partition_proportional": (
        ["partition", "--fn", "x2", "--schedule", "proportional:0.25,0.01",
         "--eps", "1e-2"], "partition.csv", 0,
        "95c8c6847ce6c3f6be50da77e77f3a528ba41c0c1c13c1622f3668e1962ca5d2"),
    "ftc_segment": (
        ["ftc", "--eps", "1e-2"], "ftc.csv", 0,
        "59ae3de2ddcd035d3a6dc5e9e8fede35106014f5e27922defcffd15a00ee007c"),
    "ftc_square": (
        ["ftc", "square", "--eps", "1e-2"], "ftc.csv", 0,
        "169c67c748e0d3e1793b5338f4cf5e88fc07a334a38b4211a54407528c3ebeb3"),
    "ftc_circle": (
        ["ftc", "circle", "--eps", "1e-2"], "ftc.csv", 0,
        "2bd93dc4489cf78b3cc8fd1217a20f75bb7b2dc6cca30526a890f392610b5ba4"),
    "gallery_circles": (
        ["gallery", "circles", "--J", "4", "--format", "csv"], "circles.csv", 0,
        "501fa33e8350ec67b4a31ae2d8390a99680e6d6d5c5a4cade8fc6cd092d55a66"),
    "gallery_cantor": (
        ["gallery", "cantor", "--k", "3", "--format", "csv"], "cantor.csv", 0,
        "286340613d75ec8f10c172188e4f3fae15a943998b66d9d1c782aa28e3a472cb"),
    "gallery_zigzag": (
        ["gallery", "zigzag", "--j", "6", "--format", "csv"], "zigzag.csv", 0,
        "7eaf3c2199435bc843282e1e042ac3e1d98089a8fa160d3da8cc2ba41be6aabe"),
    "gallery_twocurves": (
        ["gallery", "twocurves", "--format", "csv"], "twocurves.csv", 0,
        "89e6f0a587644d9c5f0ab6375041e3c259dad37b7067710ebc1e9782f4ca196d"),
}


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("chains")
    save_current(gallery.unit_circle(16), d / "circle.cur")
    save_current(gallery.zigzag_staircase(j_max=8)["T"], d / "zigzag.cur")
    return d


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_table_matches_golden_hash(name, chain_dir, monkeypatch):
    argv, table, code, digest = CASES[name]
    monkeypatch.chdir(chain_dir)
    out = Path(name)
    assert main(argv + ["--out-dir", str(out)]) == code
    assert hashlib.sha256((out / table).read_bytes()).hexdigest() == digest

"""Frozen digests of the bundled-script artifacts.

These pin the exact bytes `mvskin run` emits for the three bundled
scripts, each run against its own rig.  Any change to the algebra,
skinning, cutting, tearing, or OBJ formatting paths that moves a single
coordinate shows up here.  If a change is intentional, regenerate with:

    mvskin run --rig cylinders --script cylinders_cut_deform.json --out /tmp/g1
    mvskin run --rig cylinders --script cylinders_tear.json --out /tmp/g2
    mvskin run --rig arm --script arm_tear.json --out /tmp/g3
    sha256sum /tmp/g1/*.obj /tmp/g2/torn.obj /tmp/g3/*.obj
"""

import hashlib

import pytest

from mvskin.cli import main

GOLDEN = {
    "cylinders_cut_deform.json": ("cylinders", {
        "cut_M1.obj": "bb689d375e05722bd47545c3c0d620b43c02af2060c77fa720740b0fd58737bb",
        "cut_M2.obj": "bc7e34d10901a0e27321359683cb94952df8b85236f7526496f06f057736f8e7",
        "frame_0000.obj": "8916aca0309eb26453c7114e411b73603ccf137269b800e6cf7092c8b7b9f016",
    }),
    "cylinders_tear.json": ("cylinders", {
        "torn.obj": "1513e4b45529bfca39b4ae26407d6f3956e139be2b5f4c56826a2e3fbec38132",
    }),
    "arm_tear.json": ("arm", {
        "torn.obj": "e3540ce84be8ec0956f10a720858ae2d5976cfc76536796d4d13f0c238900e9f",
        "frame_0000.obj": "09b2cd66556f26bb73caa5a7074ae3e5a6b992b982ae28e9630145c6140029d1",
        "frame_0001.obj": "a58ad5f70557142dd58b5d22028352ce2281532e5c0dd5ed53c491343b26b1a5",
        "frame_0002.obj": "2292ec6cdb80b8ba16ab961e0aa47caacdb2ca6f83a73c16efc77c463051977a",
    }),
}


@pytest.mark.parametrize("script", sorted(GOLDEN))
def test_bundled_script_artifacts_match_golden_digests(script, tmp_path):
    rig, digests = GOLDEN[script]
    out = tmp_path / "out"
    rc = main(["run", "--rig", rig, "--script", script, "--out", str(out)])
    assert rc == 0
    for name, want in digests.items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == want, f"{script}: {name} drifted from its golden digest"

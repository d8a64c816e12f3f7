"""Frozen digests of the bundled-script artifacts.

These pin the exact bytes `mvskin run` emits for the three bundled
scripts, each run against its own rig with the default `cga` backend,
and the first arm frame under every other skinning backend.  Any change
to the algebra, skinning, cutting, tearing, or OBJ formatting paths that
moves a single coordinate shows up here.  If a change is intentional, regenerate with:

    mvskin run --rig cylinders --script cylinders_cut_deform.json --out /tmp/g1
    mvskin run --rig cylinders --script cylinders_tear.json --out /tmp/g2
    mvskin run --rig arm --script arm_tear.json --out /tmp/g3
    sha256sum /tmp/g1/*.obj /tmp/g2/torn.obj /tmp/g3/*.obj
    for b in lbs dq cga_sum; do
      mvskin run --rig arm --script arm_tear.json --backend $b --out /tmp/g3-$b
      sha256sum /tmp/g3-$b/frame_0000.obj
    done
"""

import hashlib

import pytest

from mvskin.cli import main

# test id -> (script, rig, backend, {artifact: sha256})
GOLDEN = {
    "cylinders_cut_deform.json": ("cylinders_cut_deform.json", "cylinders", "cga", {
        "cut_M1.obj": "bb689d375e05722bd47545c3c0d620b43c02af2060c77fa720740b0fd58737bb",
        "cut_M2.obj": "bc7e34d10901a0e27321359683cb94952df8b85236f7526496f06f057736f8e7",
        "frame_0000.obj": "8916aca0309eb26453c7114e411b73603ccf137269b800e6cf7092c8b7b9f016",
    }),
    "cylinders_tear.json": ("cylinders_tear.json", "cylinders", "cga", {
        "torn.obj": "1513e4b45529bfca39b4ae26407d6f3956e139be2b5f4c56826a2e3fbec38132",
    }),
    "arm_tear.json": ("arm_tear.json", "arm", "cga", {
        "torn.obj": "e3540ce84be8ec0956f10a720858ae2d5976cfc76536796d4d13f0c238900e9f",
        "frame_0000.obj": "09b2cd66556f26bb73caa5a7074ae3e5a6b992b982ae28e9630145c6140029d1",
        "frame_0001.obj": "a58ad5f70557142dd58b5d22028352ce2281532e5c0dd5ed53c491343b26b1a5",
        "frame_0002.obj": "2292ec6cdb80b8ba16ab961e0aa47caacdb2ca6f83a73c16efc77c463051977a",
    }),
    "arm_tear.json-lbs": ("arm_tear.json", "arm", "lbs", {
        "frame_0000.obj": "33aba863c00404d3d230662174d6310632c65493ad50ce7e55ab4f4f5f3ff961",
    }),
    "arm_tear.json-dq": ("arm_tear.json", "arm", "dq", {
        "frame_0000.obj": "26808c3fa92e29aef2d09c0671bfe3bc74f17744d75eac1646cab69c93bcfb17",
    }),
    "arm_tear.json-cga_sum": ("arm_tear.json", "arm", "cga_sum", {
        "frame_0000.obj": "2a2baf59fc6f2a15e7e38d0ce1ed78563ede662cb822955164c5afbabbcaae86",
    }),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_bundled_script_artifacts_match_golden_digests(case, tmp_path):
    script, rig, backend, digests = GOLDEN[case]
    out = tmp_path / "out"
    rc = main(["run", "--rig", rig, "--script", script, "--backend", backend, "--out", str(out)])
    assert rc == 0
    for name, want in digests.items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == want, f"{case}: {name} drifted from its golden digest"

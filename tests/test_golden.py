"""Golden outputs: the SHA-256 of exit code + stdout for fixed CLI commands.

Each digest pins the exact bytes a command prints, so a refactor that moves
any published number, default or format shows up here.  The commands use
the README fixtures and every default of their subcommand.
"""

from __future__ import annotations

import hashlib

import pytest

from ptspec.cli import run

ECKART = ("--model", "eckart", "--A", "3.5", "--beta", "1.0")
PT = ("--model", "pt", "--alpha", "4.3", "--beta", "1.7", "--eps", "0.5")
HULTHEN = ("--model", "hulthen", "--alpha", "0.5", "--C", "-9")

GOLDEN = [
    (("spectrum", *ECKART), "98f0a19771c7bcc31896d1977dd56853e177186bdd98edcf8f4df2e0ad8119c0"),
    (("spectrum", *ECKART, "--format", "csv"), "72dec4c78fa43a143bab6d4c16219d421e654f214a8de7c56c4ecc5e8c3925d9"),
    (("spectrum", *PT), "77464c6799bbacca5ba7b2c737b203d5c263e0b7f02e80fdb8a4d2eed9d8e88c"),
    (("spectrum", *PT, "--format", "csv"), "ac7b647594f1155d1dae7952acc48427a0d5ccb878cf277beb371fbd4a4634ac"),
    (("spectrum", *HULTHEN), "114b3e8361480145fb14d7b17f9b93c32642a8c0d2162497bca5845660e56ba0"),
    (("spectrum", *HULTHEN, "--format", "csv"), "f7f6eb4c81f56daf7fabf7f36272ed06d4e8b544dfaeea0d379231a978cafd82"),
    (("verify", *ECKART, "--method", "residual"), "e2a0baff2fd90cf62d7e7fe70365b2f04364930e9c4f5aa427750afd17fa7a11"),
    (("verify", *PT, "--method", "residual"), "829f9a5d21a60f0566b4cf290ea71c4cb83d4860120b6240b00d6416b9117eff"),
    (("verify", *HULTHEN, "--method", "residual"), "2f51b24a51319ae552f073768b94b3f154471b10fd69a6c2f25363ab98511a15"),
    (("verify", *ECKART, "--method", "fd", "--grid-n", "1500"), "337c6bae862aa52c7b5dfb223550c7d6c397142732acb7ecc6f4320eef36afd6"),
    (("verify", *PT, "--method", "fd", "--grid-n", "1500"), "3d7e77ea25f10db429e4caae176031b6724f75657d447be041424c82e75fdadc"),
    (("sample", "--what", "psi", *ECKART, "--N", "1"), "cae42de618e00f7606cd12e64594d111d5876e1b27def069ac0f2325d8ad79d7"),
    (("sample", "--what", "psi", *PT, "--sigma", "-1", "--tau", "-1", "--N", "2"), "e2574ed06efdebbd7796a9177ef5943ea6f0f8112d2b724afb6bf045474eddac"),
    (("sample", "--what", "psi", *HULTHEN, "--sigma", "-1", "--N", "1"), "977c932260de05cacdea2e7c1ccd1d80b0f27defa4614eb96c1af29b1445588d"),
    (("sample", "--what", "potential", *HULTHEN), "43f1668bf28cc4ddffd25dbdf9a3f8f35f1a9d2dc00d7fde2291da83ebf60f63"),
    (("sample", "--what", "potential", *ECKART), "72389b225d1e32ad25697ec14f6fd377eaea60f0f32fb4259c8cf96dda035e4c"),
    (("sample", "--what", "contour"), "0e04aea6a231e8598eeb8078c9bd4866dd4bf1b54b48cf29274758c965edcc5e"),
    (("sample", "--what", "contour", "--arch"), "666e3c71f160e6f4e33ab8e67ac2766f9ab384006409f715fbe5bc7dea876a06"),
    (("sweep", "--model", "hulthen", "--alpha", "0.2:2.2:0.2", "--C", "-9"), "a5165fcf2d83d5c601e62dd9def0f48e2603a312255415287095ca57a965ea74"),
    (("liouville-check", "--alpha", "0.5", "--C", "-9"), "f3470239c43c4cd81d53686deee99b8bb1a7f06712fe5627f23208f4fcd7df6f"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(GOLDEN)])
def test_output_bytes_are_unchanged(argv, digest, capsys, monkeypatch):
    monkeypatch.delenv("PTSPEC_SEED", raising=False)
    code = run(list(argv))
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(b"%d\n" % code + stdout).hexdigest() == digest

"""Golden `--json` payloads: a refactor must keep every CLI payload
byte-identical.  Each entry is (arguments, exit code, SHA-256 of stdout).

Only an intended payload change may re-record a digest: print
`hashlib.sha256(out.encode()).hexdigest()` for the command's stdout.
Family-file paths are relative to the repository root, where the suite
runs, because the `verify` payload echoes the command.
"""
import hashlib

import pytest

from sl2ybe.cli import main

GOLDEN = [
    ("verify --family yang --s 3/2", 0, "31a6c6756c2630d4f09dae8ae2f2530c9b27d54d9e3ad5066cd7483b997bef58"),
    ("verify --family baxter-tl --s 1", 0, "68a05636ec3e58f5ad71b6317e54e22407ea1b362665efc6b553fed094e9d767"),
    ("verify --family zamolodchikov --s 3/2 --m 2", 0, "6b6566c26feb91dca85d23f63c0e28411ebc0e4a484bc06b15b1fcab14316326"),
    ("verify --family krs-prefix --s 1", 0, "043b00b10c79ddc90d4219b70ef1081fef3a181f23139cb7a86612950c9ec2db"),
    ("verify --family krs-prefix --s 2", 0, "f94b26cda3eedd7af2e9be8066fd08e06792c60555b53eb5486a68f6ca0c5325"),
    ("verify --family exceptional-s3 --levels 0..9", 0, "c76c0f200a4c24c44fd78b9cfd94bb481e66509b5ebb66f53c330ff7a90895be"),
    ("verify --family yang --s 2 --grid dense", 0, "4feddfe91c921acb69a9d6c62e0fc198909d75af9e31999e78e34b3f294ddd61"),
    ("verify --family baxter-tl --s 2 --grid dense", 0, "714c4873afd8a1ce5146891964fcad90e2f6ef392390d66d896fde9c9c937a3a"),
    ("verify --family zamolodchikov --s 2 --grid dense", 0, "9d3f0cb6644be5c90e4fa6c2a5e12a1b47833b8f6ce21c3ad92d75463c198c7f"),
    ("verify --family krs-prefix --s 3 --grid dense", 0, "f487e4d64f2c5fd1de63e3cb9fe2be2c248554972eaac81bc580a8395051c7bf"),
    ("verify --family exceptional-s3 --levels 0..9 --grid dense", 0, "013b3d6cf6e04012aee498a12551d222a19abbc3fe1c5b45dabd452157acdfda"),
    ("verify --family constant-baxter --s 2 --m 3", 1, "e5892fbee09149ec57e886738c4f9c29bd5448e26bb1c4b998cbac2859b76af5"),
    ("verify --family permutation --s 3/2", 0, "e5dd42af6784eefd5bc9d464f2ce58690659d8f208e33c42a6ce20b98378ab58"),
    ("verify --family identity --s 1", 0, "37fa11395c6e2ecdb315572a2867e928c88cd8c28d7ec1303e7f29c3a72fb342"),
    ("family show --family yang --s 3/2", 0, "f08c40de4b68f66b691c015ee34bb3310c352a0a7f9d6b771001e64abf35e9fb"),
    ("family show --family baxter-tl --s 1", 0, "c617164fe0bed5b9ab31e6f8a889197579e96517cfb4d695e79698bad951e4e4"),
    ("family show --family zamolodchikov --s 2 --m 3", 0, "c60017832744d3e4b1a530d66854275216ef26a677f27b5a6ef966a62266fd35"),
    ("family show --family krs-prefix --s 2", 0, "f402de42dfc7a1cf6f53002e7211cd159f6e392a06f959b0e06f20175fe531f4"),
    ("family show --family exceptional-s3", 0, "b3a8eb9266fdb33483ed655cca8838b76f1a3256185380948ec206f9a658d647"),
    ("family show --family constant-baxter --s 2 --m 3", 0, "1f2948c3f35118a252d615371dcf153adba48af0da35cc336b78c2a573776161"),
    ("family show --family permutation --s 3/2", 0, "9128aeb369f740d9222c10f53d7a2b1244fb09caf98a77e50c572b3ecf940133"),
    ("family show --family identity --s 1", 0, "7799c7bec8895cd910b691c5061ea455d1ebbd735f33c16417d37aabd69bd54b"),
    ("family show --family baxter-tl --s 3", 0, "2e24d7bcfe01e2277e46f1e0ca88e318977a89b4a362c3813f3e6161155f6e8e"),
    ("family show --family constant-baxter --s 3/2 --m 2", 0, "66f15141a35c2752e32a2005bef1abb738032b8b7845e7988896120ab0655f36"),
    ("family show --family constant-baxter --s 3 --m 6", 0, "686e8bfa9aeb8532a1eecb67b88649aecb43413757e9e82e4e1abb6dac275e2f"),
    ("verify --family-file perfbench/perturbed_spin_half.json", 1, "3cb952ef51b518c55f2200deb9bcbe28419d6066631b59e21e9052d81960f05d"),
    ("verify --family-file perfbench/perturbed_spin_half.json --grid dense", 1, "babd7e66718e6f09f14ea7dba31759b0b53156e3277f1f76b3fcda2ff31b59ac"),
    ("verify --family zamolodchikov --s 2 --m 3 --levels 5 --grid dense", 1, "2c85ce83324b2c316c75776f2e88caf6cb1a9bb8006934f0eb2c92725204141c"),
    ("verify --family baxter-tl --s 3 --grid dense", 0, "3c771f0031cc5c55c8280d8d6908fbe5a11326004437398281a0703903b474d2"),
    ("family show --family-file perfbench/perturbed_spin_half.json", 0, "e3cb2be584292479427a8eb4240f43570088bd3ba98152d3a9b6a90e536056fb"),
    ("classify-constant --s 1 --m 2", 0, "e3c4dd10c1748574c1bcd65ef44152f7fc4b99ecc5eacaf1226ad584a5b4cc26"),
    ("rigidity --s 3 --m 3", 0, "d3e928c01c016b2bfe14cf258f9b2df45a31eb111d4162318035c436c3b5637a"),
    ("scan-degeneracy --max-2s 6", 0, "3a89352101d82373b942e0a6d0a7f873d36a060d56a79f3b677528560d57416e"),
    ("scan-degeneracy --max-2s 10", 0, "90a82ac64b95a396840d0f4e11bf19f53269d0ff33db91094db6358e543a0339"),
    ("scan-degeneracy --max-2s 14", 0, "1c3ac337c47f1b72bc19e83878aacf366beaf8140005908882fd920d15f3a2d5"),
    ("scan-degeneracy --max-2s 20", 0, "0753fb24d62b64d2de03dfacbb791e8af65bb9daab325c1fbf5f0b4de193417a"),
    ("scan-degeneracy --max-2s 30", 0, "2eb9952a5fd621b306031f560e50c73ba00b57ff6e4acf9a6e4d684824571e8d"),
    ("rigidity --s 4 --m 8", 0, "ee6e58c005901a5378e7454d0ec4b30bd7a5b48a9c9364fd99609173140229fe"),
    ("amat --s 3/2 --n 3", 0, "7f464c807f202105e604f8d408595d580666a0cf35fad3dc277c6bf9c1909f8f"),
    ("amat --s 3/2 --n 3 --gauge", 0, "bdaae3a56043ff507fb6a584027ff284986d054e6dbc60fe8eac7b00ddb14f8f"),
    ("amat --s 5 --n 12", 0, "c3168ad6a1c857c2f9fc1c0aabd5d1be3c503cb734fa564da55139580a728ce7"),
    ("amat --s 5 --n 12 --gauge", 0, "e7be1e1c7993240cf12810ba23b2c88a785bd3777cce1274ac781a68690ced60"),
    ("eta --s 5/2 --m 3 --n 4", 0, "7faf29411cc15a1579354fc1720a29eee29a985f3e8ed60f0960d947cf5ac5b1"),
    ("sixj 3/2 3/2 0 1/2 1/2 2", 0, "d11e52b99c1768ad470aa3edbab9fda3315aeb1210469f221e61ee38a5774de7"),
    ("sixj 150 151 150 149 150 151", 0, "720e0c129f1caa79ae3ebeaa95b37a4d87402e2a2c4b5be75bcc44fa21a7bd4b"),
    ("sixj 1/2 1/2 1 2 2 3/2", 0, "9077bb638ee8c23c711a94cecad7c3a8be5577582a6e960b04c77d3327f6f2d8"),
    ("sixj 1 1 1 1/2 1/2 1/2", 0, "759bdc74d8766e3585baeea24826619174b88948caf80c9e98f7afbee4ee8bca"),
    ("sixj 1 1 3 1 1 1", 0, "ac97fba6e7cb7cc1568435e2ce3a6fba3d93e4bfd060cc2407bb8214ec1e8f3f"),
    ("suite --max-2s 6", 1, "e49ba24858567b971b0072851886c9171a99bdca47d1c0e8edf51cdfd265203a"),
    ("suite --max-2s 10", 1, "6109270ae1d0be597f7e1e9f7f54fa2e08ec7d67e402a38f70df3e9f7d5d5434"),
    ("oracle --family yang --s 1 --lambda 1/2 --mu 1/3", 0, "a5074da564d88d2ffb0004100edaecd215014f15074e9adf5127a07d87d3234a"),
    ("oracle --family-file perfbench/perturbed_spin_half.json --lambda 1 --mu 2", 0, "9194cf9cd655fab2cf19e34b7640395bf76cd56f017a78c09ffd96c655ff70f8"),
    ("oracle --family baxter-tl --s 1 --lambda 2 --mu 3", 0, "d22d79f7d895d01112afe20e1030c20cc21b8236832c1bee2f2e5bd350e7e172"),
    ("oracle --family constant-baxter --s 3/2 --m 2 --lambda 0 --mu 0", 0, "2c0111a3da974fb53d95d3352b5a9f1f44dc01eea53f3771d95821e88bf1a3af"),
    ("oracle --family exceptional-s3 --lambda 1/2 --mu 1/3", 0, "ac8b950cd9de603c791e20968d5ccd031ad76e12d1b2ee96dc1e59b4039faadf"),
    ("verify --family baxter-tl --s 4 --grid dense", 0, "4efb58ec7fc11bf0a9e601b10e07d1ecb594fdd7083f5cc91dec3da536f3385f"),
    ("verify --family constant-baxter --s 4 --m 5", 1, "0e966f5b6473737a7e0613497be875d8f2e8cac758d6b090ae7a77c1e3b7e0b0"),
    ("oracle --family baxter-tl --s 3/2 --lambda 2 --mu 3", 0, "29b437c7c853093c87123840514066d12a22388cd47b05aa00a1f04d61f7a93a"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_payload_unchanged(capsys, command, code, digest):
    got = main(command.split() + ["--json"])
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)

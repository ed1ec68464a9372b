"""Golden outputs of every subcommand: stdout and exit code, byte for byte.

Each case runs ``kronlab.cli.main`` on fixed inputs and compares the exit
code and the SHA-256 of stdout with values recorded from the reference
implementation.  A refactor must keep every case unchanged; a deliberate
change of output updates the digest here together with the reason.

To print the current digests (for example after such a change), and the
``GOLDEN_STDERR`` entries of ``test_cli.py``::

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.dump()"
"""

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from kronlab.cli import main

WALKS = (
    "[6] [5,1] [4,2] [4,1,1]\n"
    "[6] [5,1] [4,1,1] [4,1,1]*3:1\n"
    "[6] [5,1] [5,1]*2:1 [4,2] [3,2,1] [4,1,1] [3,2,1] [2,2,2] [2,2,1,1] "
    "[3,2,1] [2,2,2] [3,2,1] [2,2,2]\n"
)

# id -> (argv, stdin); "{walkfile}" in argv is replaced by a file holding WALKS
CASES = {
    "kron-operator": (["kron", "[3,1]", "[2,1,1]", "--method=operator"], None),
    "kron-character": (["kron", "[3,2]", "[3,1,1]", "--method=character"], None),
    "kron-both-default": (["kron", "[3,1]", "[3,1]"], None),
    "kron-staircase-both": (["kron", "[4,3,2,1]", "[4,3,2,1]", "--method=both"], None),
    "kron-trivial-factor": (["kron", "[5]", "[3,1,1]", "--method=operator"], None),
    "kron-character-n7": (["kron", "[4,2,1]", "[3,2,2]", "--method=character"], None),
    "kron-empty-both": (["kron", "[]", "[]", "--method=both"], None),
    "kron-operator-n12": (["kron", "[5,3,2,1,1]", "[6,2,2,2]", "--method=operator"], None),
    "kron-character-n12": (["kron", "[5,3,2,1,1]", "[6,2,2,2]", "--method=character"], None),
    "kron-staircase-operator": (["kron", "[5,4,3,2,1]", "[5,4,3,2,1]", "--method=operator"], None),
    "kron-weight-mismatch": (["kron", "[4]", "[2,1]"], None),
    "kron-bad-syntax": (["kron", "[4", "[2,1,1]"], None),
    "kron-unknown-method": (["kron", "[3,1]", "[3,1]", "--method=guess"], None),
    "power-operator": (["power", "5", "3", "--method=operator"], None),
    "power-character": (["power", "5", "3", "--method=character"], None),
    "power-tableaux": (["power", "5", "3", "--method=tableaux"], None),
    "power-both-default": (["power", "5", "3"], None),
    "power-all": (["power", "6", "4", "--method=all"], None),
    "power-all-k0": (["power", "2", "0", "--method=all"], None),
    "power-all-n8": (["power", "8", "6", "--method=all"], None),
    "power-n-too-small": (["power", "1", "3"], None),
    "power-negative-k": (["power", "5", "-1", "--method=all"], None),
    "power-resource-limit": (["power", "30", "2"], None),
    "power-k-limit": (["power", "5", "11"], None),
    "power-raised-limit": (["power", "9", "2", "--method=all", "--max-n", "9"], None),
    "power-character-n9": (["power", "9", "5", "--method=character", "--max-n", "9"], None),
    "power-all-n14": (["power", "14", "10", "--method=all", "--max-n", "14"], None),
    "power-character-n20": (["power", "20", "8", "--method=character", "--max-n", "20"], None),
    "chartable-json": (["chartable", "5", "--format=json"], None),
    "chartable-ascii": (["chartable", "5", "--format=ascii"], None),
    "chartable-default": (["chartable", "3"], None),
    "chartable-nonpositive": (["chartable", "0"], None),
    "chartable-ascii-7": (["chartable", "7", "--format=ascii"], None),
    "chartable-json-12": (["chartable", "12", "--format=json"], None),
    "tableaux-count": (["tableaux", "count", "[5]", "[3,2]", "9"], None),
    "tableaux-count-zero": (["tableaux", "count", "[4]", "[1,1,1,1]", "1"], None),
    "tableaux-list": (["tableaux", "list", "[5]", "[3,2]", "3"], None),
    "tableaux-list-limit": (["tableaux", "list", "[5]", "[3,2]", "9", "--limit", "5"], None),
    "tableaux-list-70": (["tableaux", "list", "[7]", "[4,2,1]", "5"], None),
    "tableaux-weight-mismatch": (["tableaux", "count", "[4]", "[2,1]", "2"], None),
    "tableaux-nonpositive-limit": (["tableaux", "list", "[4]", "[3,1]", "1", "--limit", "0"], None),
    "bijection-file": (["bijection", "{walkfile}"], None),
    "bijection-stdin": (["bijection"], "[5] [4,1]\n\n[6] [5,1] [4,2] [4,1,1]\n"),
    "bijection-dash": (["bijection", "-"], "[5] [4,1]\n"),
    "bijection-bad-walk": (["bijection"], "[5] [4,1]\n[5] [5]\n"),
    "formula-in-regime": (["formula", "12", "5", "[9,2,1]"], None),
    "formula-out-of-regime": (["formula", "4", "3", "[2,2]"], None),
    "egf-series": (["egf", "[1]", "--order", "4"], None),
    "egf-check-empty": (["egf", "[]", "--order", "8", "--check"], None),
    "egf-check": (["egf", "[2,1]", "--order", "6", "--check"], None),
    "egf-order-too-small": (["egf", "[2,1]", "--order", "2"], None),
    "egf-series-order-100": (["egf", "[3,2,1]", "--order", "100"], None),
    "egf-check-order-100": (["egf", "[3,2,1]", "--order", "100", "--check"], None),
    "verify-small": (["verify", "--n", "5", "--k", "4"], None),
    "verify-trivial": (["verify", "--n", "2", "--k", "0"], None),
    "verify-resource-limit": (["verify", "--n", "100", "--k", "1"], None),
    "verify-k-limit": (["verify", "--n", "3", "--k", "11"], None),
    "verify-raised-limit": (["verify", "--n", "9", "--k", "1", "--max-n", "9"], None),
    "no-command": ([], None),
}

# id -> (exit code, SHA-256 of stdout)
GOLDEN = {
    "kron-operator": (0, "0f82af3e6bbe2a43c5458c16bb544104e46c6864dea1e7581436168fb7579ceb"),
    "kron-character": (0, "03bf840ca56eefa0e0fd4e415e55f617092273e1bc507a65fecc5dec06cf141c"),
    "kron-both-default": (0, "eb31a8d42f60444aafbc6d0cb146f5b5618d75f8acc136a4c2ef4dbf670b258a"),
    "kron-staircase-both": (0, "8aa603f97ed74413695fe81a4320b8a87b31d147f03d9bc7ff775a1e7ea75663"),
    "kron-trivial-factor": (0, "a1d8aabd546785203b8db30cf8ab701612b0e444d7ee5f6bca67ff963221672f"),
    "kron-character-n7": (0, "a7212602484b2b59a1ecc47a0a23443910bbbe962848f069bf568ace1705de6e"),
    "kron-empty-both": (0, "5bb02b3a9c62d10480b010a9e219b355f4e6b0bfc50cf29a62047f9560a2c9df"),
    "kron-operator-n12": (0, "d1ccf135fdeb5bf42ebab6b8d3f2ddbf45b1c28e76ab785f881882c5ef9f42c9"),
    "kron-character-n12": (0, "d1ccf135fdeb5bf42ebab6b8d3f2ddbf45b1c28e76ab785f881882c5ef9f42c9"),
    "kron-staircase-operator": (0, "28082ba4720e27c9352a4fd7663305a50c97b34f9e5dbcd2cf945532758f653b"),
    "kron-weight-mismatch": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "kron-bad-syntax": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "kron-unknown-method": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "power-operator": (0, "a13eececd4638a05f395f96ced095d261e752f30ff5c264b1c227d3740e6a7f8"),
    "power-character": (0, "a13eececd4638a05f395f96ced095d261e752f30ff5c264b1c227d3740e6a7f8"),
    "power-tableaux": (0, "a13eececd4638a05f395f96ced095d261e752f30ff5c264b1c227d3740e6a7f8"),
    "power-both-default": (0, "a13eececd4638a05f395f96ced095d261e752f30ff5c264b1c227d3740e6a7f8"),
    "power-all": (0, "39235507a0a023aebd83a57eea7ae60f4dc28919194a195ddaa3fbec0640d1c3"),
    "power-all-k0": (0, "690783c408180bf094b473854f8c490d0e485812d8a8fc3d91b8c34ad450bbb5"),
    "power-all-n8": (0, "25b6684bb341a842c610a3cc2bb02b4ce7e07e244255a7ecbd89a259f71f1f72"),
    "power-n-too-small": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "power-negative-k": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "power-resource-limit": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "power-k-limit": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "power-raised-limit": (0, "3ddadd9e780495abb136c5beb6121e22baab773c8e5367826f423d7357020db3"),
    "power-character-n9": (0, "528c274c15a32a228722a908dc58c22570d5271b3bb1cf7fd2be2c9b93eddb9d"),
    "power-all-n14": (0, "c8d325bebecc218693a1366a48cc30bac1076cacd322e8c52e02eea6c83fcbb1"),
    "power-character-n20": (0, "f45b268a3392a6ec531833aa6648c45dfac845a432613abd91bec753e4acf96f"),
    "chartable-json": (0, "ac0018876cba7c4fb916cd9e0c7fe80b974ce7773f243f538b2cb8394c043a43"),
    "chartable-ascii": (0, "390f885ffd76dac5b839633ea90cb7b9f33e3716f6514ec53b90ec7e9077e326"),
    "chartable-default": (0, "1f6202c67c2dcfe5cae01afe5610d0324bc3749516100a7c4c890409ccf60b29"),
    "chartable-nonpositive": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "chartable-ascii-7": (0, "08a62467262db58ea5ae07a436b5c2bc4ab6a81457f3df01632a26f1d0d66426"),
    "chartable-json-12": (0, "03da964c0c6417bfa3c52ec351f1cf56d2b91ee83d6773ff072a198b31c27052"),
    "tableaux-count": (0, "528bb9cb97f3c1c46fc7ce108c0fab00028f98585bbf3c962cf8925d554f763e"),
    "tableaux-count-zero": (0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    "tableaux-list": (0, "63a7529c8d22be9dc4952988d6dde33766db2b82ac98c224d4511e7dc78819b5"),
    "tableaux-list-limit": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "tableaux-list-70": (0, "a20b100836f941f12cc91ae7425a073382acd826017103081efebaac82547483"),
    "tableaux-weight-mismatch": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "tableaux-nonpositive-limit": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bijection-file": (0, "3c22fbe49d6a599fb4f4ce4a0f1ff1ae2b66a7a7b0e825ea3a11de18e6f07033"),
    "bijection-stdin": (0, "7c49670a0fcebffaefaea0f07ce8dc544290243be33b77879bb3a4759d9b1076"),
    "bijection-dash": (0, "bb95633e9cd5ed4145bbefcf5da57caf7319f3e12523d11c86be169023be6354"),
    "bijection-bad-walk": (2, "bb95633e9cd5ed4145bbefcf5da57caf7319f3e12523d11c86be169023be6354"),
    "formula-in-regime": (0, "cc11ec6a362f15f1af72e9280bb202173c8a4a63e23195e9a6075def53df4ce4"),
    "formula-out-of-regime": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "egf-series": (0, "d88343a68689a3405c3518b245af7793b5b91467c908d056623ec45f46292964"),
    "egf-check-empty": (0, "e8e48127a630d027464c4703a1320a1cecade3e90554d9af7287dc389ef7f139"),
    "egf-check": (0, "9fbba43c53c2ee25d1eac88398221e25988a2923f8f97f7253d4ec08588adadc"),
    "egf-order-too-small": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "egf-series-order-100": (0, "576c4d0b9bd053d86052e644eda146f9cccfb5b2c6c0b0b334a3469d0fcc36ef"),
    "egf-check-order-100": (0, "ef4e3346b0857bfc0ee24597d1d7d69ec824b7bfc93ced658606ea9237995f9c"),
    "verify-small": (0, "398ef6ddb37d5ddc5e5bfa3f13478335a10e008dc53e9ae769f112c107195ee0"),
    "verify-trivial": (0, "6da13995b6aa2429c48603a4d84b45dcb842c56bbaaebbb48aba8d706b2635d3"),
    "verify-resource-limit": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify-k-limit": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify-raised-limit": (0, "52e2064dd3aab89f4d6b4e98a9af0c0c537ea4abbb3eb7ef3af8b59554efc883"),
    "no-command": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def invoke(argv, stdin, walkfile):
    """The exit code, stdout and stderr of one case."""
    argv = [a.replace("{walkfile}", str(walkfile)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def dump():
    """Print a GOLDEN table for the current implementation, then the
    ``GOLDEN_STDERR`` entries (``test_cli.py``) of its failing cases: each
    one-line stderr, which argparse's usage errors never are."""
    import json
    import os
    import tempfile

    errors = {}
    with tempfile.TemporaryDirectory() as tmp:
        walkfile = os.path.join(tmp, "walks.txt")
        with open(walkfile, "w", encoding="utf-8") as fh:
            fh.write(WALKS)
        for case, (argv, stdin) in CASES.items():
            code, out, err = invoke(argv, stdin, walkfile)
            print(f'    "{case}": ({code}, "{digest(out)}"),')
            if code and err.count("\n") == 1:
                errors[case] = err[:-1]
    print()
    for case, line in errors.items():
        print(f'    "{case}": {json.dumps(line, ensure_ascii=False)},')


def test_every_case_has_a_golden_value():
    assert set(GOLDEN) == set(CASES)


def test_both_routes_print_the_same_product_at_n12():
    # the same pair by either route: the output must be the same bytes
    assert GOLDEN["kron-character-n12"] == GOLDEN["kron-operator-n12"]


@pytest.mark.parametrize("case", list(CASES))
def test_golden_output(case, tmp_path):
    walkfile = tmp_path / "walks.txt"
    walkfile.write_text(WALKS, encoding="utf-8")
    argv, stdin = CASES[case]
    code, out, _ = invoke(argv, stdin, walkfile)
    assert (code, digest(out)) == GOLDEN[case], out

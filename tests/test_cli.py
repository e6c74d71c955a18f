import hashlib
import importlib.util
import io
import itertools
import json
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from extsheaf import cli
from extsheaf.cli import (
    load_document,
    parse_faces_output,
    parse_labels_output,
    run,
)
from extsheaf.extalg import ExtAlgebra, ext_algebra
from extsheaf.hsheaf import build_H
from extsheaf.isotropy import build_catalog
from extsheaf.posets import SectionSpace

DATA = Path(__file__).resolve().parents[1] / "src" / "extsheaf" / "data"


def invoke(*argv):
    buf = io.StringIO()
    code = run(list(argv), out=buf)
    return code, buf.getvalue()


def invoke_json(*argv):
    code, text = invoke(*argv)
    return code, json.loads(text)


class TestBasics:
    def test_validate_shipped_data(self):
        for name in ["p1_trivial", "p1_halfint", "p1xp1", "p2",
                     "canonical_l1", "canonical_l2", "synthetic_symmetric_rank1"]:
            code, payload = invoke_json("--input", str(DATA / f"{name}.json"), "--command", "validate")
            assert code == 0, payload
            assert all(c["status"] == "pass" for c in payload["checks"])

    def test_hilbert_block_00_p1(self):
        code, payload = invoke_json("--input", str(DATA / "p1_trivial.json"),
                                    "--command", "hilbert", "--block", "0:0", "--cutoff", "8")
        assert code == 0
        assert payload["blocks"] == [{"alpha": 0, "beta": 0, "hilbert": [1, 0, 2, 0, 2, 0, 2, 0, 2]}]

    def test_faces_l1(self):
        code, payload = invoke_json("--input", str(DATA / "canonical_l1.json"), "--command", "faces")
        assert code == 0
        faces = payload["faces"]
        assert len(faces) == 3

    def test_ext_single_block(self):
        code, payload = invoke_json("--input", str(DATA / "p1_trivial.json"),
                                    "--command", "ext", "--block", "0:0", "--cutoff", "6")
        assert code == 0
        blk = payload["blocks"][0]
        assert blk["hilbert"] == [1, 0, 2, 0, 2, 0, 2]
        # the diagonal block table is closed under its own products
        names = {b["name"] for b in blk["basis"]}
        for x, y, z, c in blk["table"]:
            assert {x, y, z} <= names

    def test_tsv_mode(self):
        code, text = invoke("--input", str(DATA / "p1_trivial.json"),
                            "--command", "hilbert", "--block", "0:0", "--cutoff", "4", "--format", "tsv")
        assert code == 0
        assert "hilbert" in text and "1,0,2,0,2" in text


class TestErrors:
    def test_missing_file_is_schema_error(self):
        code, payload = invoke_json("--input", "/nonexistent.json", "--command", "validate")
        assert code == 1
        assert payload["error"]["kind"] == "schema"

    def test_bad_flag_usage(self):
        code, payload = invoke_json("--input", str(DATA / "p1_trivial.json"), "--command", "bogus")
        assert code == 1

    def test_datum_invalid(self, tmp_path):
        bad = {
            "mode": "symmetric", "labels": "all", "cutoff": 4,
            "symmetric": {
                "V": ["a", "b"], "S": [[], ["a"], ["a", "b"]], "l": 0,
                "Jmap": {"-": [], "a": [], "a+b": []}, "m": 2,
                "D_subspaces": {"-": [], "a": [[1, 0]], "a+b": [[1, 0], [0, 1]]}},
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        code, payload = invoke_json("--input", str(p), "--command", "validate")
        assert code == 2
        assert payload["error"]["kind"] == "datum-invalid"
        assert "downward" in payload["error"]["message"]

    def test_odd_cutoff_rejected(self):
        code, payload = invoke_json("--input", str(DATA / "p1_trivial.json"),
                                    "--command", "validate", "--cutoff", "7")
        assert code == 1

    def test_schema_error_names_missing_key(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"mode": "toric", "toric": {"lattice_rank": 1}}))
        code, payload = invoke_json("--input", str(p), "--command", "validate")
        assert code == 1
        assert "overlattice_generators" in payload["error"]["message"]

    def test_file_not_in_utf8_is_schema_error(self, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes('{"mode": "toric", "labels": "ä"}'.encode("latin-1"))
        code, payload = invoke_json("--input", str(p), "--command", "validate")
        assert code == 1
        assert payload["error"]["kind"] == "schema"
        assert "UTF-8" in payload["error"]["message"]

    def test_deeply_nested_file_is_schema_error(self, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text('{"mode": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, payload = invoke_json("--input", str(p), "--command", "validate")
        assert code == 1
        assert payload["error"] == {"kind": "schema", "message": "input is nested too deeply to parse"}

    def test_block_rejected_where_it_does_not_apply(self):
        # only ext and hilbert show one block; the other commands refuse --block
        for command in ("validate", "faces", "labels", "cohomology", "check-all"):
            code, payload = invoke_json("--input", str(DATA / "p1_trivial.json"),
                                        "--command", command, "--block", "0:1")
            assert code == 1, command
            assert payload["error"]["kind"] == "schema"
            assert "--block" in payload["error"]["message"], command


class TestRoundTrip:
    def test_faces_roundtrip(self):
        from extsheaf.cli import document_datum

        for name in ["canonical_l2", "p1xp1"]:
            code, payload = invoke_json("--input", str(DATA / f"{name}.json"), "--command", "faces")
            assert code == 0
            doc = load_document(str(DATA / f"{name}.json"))
            datum, _, _, _ = document_datum(doc)
            assert parse_faces_output(payload) == datum.faces()

    def test_labels_roundtrip(self):
        from extsheaf.cli import document_datum
        from extsheaf.isotropy import build_catalog

        for name in ["p1_halfint", "canonical_l1"]:
            code, payload = invoke_json("--input", str(DATA / f"{name}.json"), "--command", "labels")
            assert code == 0
            doc = load_document(str(DATA / f"{name}.json"))
            datum, _, labels, _ = document_datum(doc)
            catalog = build_catalog(datum.isotropy, datum.V, labels)
            assert parse_labels_output(payload) == [(lab.orbit, lab.char) for lab in catalog.labels]


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        args = ("--input", str(DATA / "p1_halfint.json"), "--command", "check-all",
                "--cutoff", "8", "--seed", "5")
        code1, text1 = invoke(*args)
        code2, text2 = invoke(*args)
        assert code1 == code2 == 0
        assert text1 == text2

    def test_cohomology_deterministic(self):
        args = ("--input", str(DATA / "canonical_l1.json"), "--command", "cohomology", "--cutoff", "6")
        _, text1 = invoke(*args)
        _, text2 = invoke(*args)
        assert text1 == text2


def _canonical_l2_with_kdatum(tmp_path, kdatum):
    doc = json.loads((DATA / "canonical_l2.json").read_text())
    doc["symmetric"]["Kdatum"] = kdatum
    p = tmp_path / "kdatum.json"
    p.write_text(json.dumps(doc))
    return p


class TestExplicitKData:
    PAIRS = ("->1", "->2", "1>1+2", "2>1+2")

    def test_scalar_kdatum_matches_default(self, tmp_path):
        ident = [[1, 0], [0, 1]]
        kdatum = {j: {"tau_rank": 2, "to_open": ident, "generators": []} for j in ("-", "1", "2", "1+2")}
        kdatum["restrictions"] = {pair: {"tau_map": ident, "gens": []} for pair in self.PAIRS}
        p = _canonical_l2_with_kdatum(tmp_path, kdatum)
        code, explicit = invoke_json("--input", str(p), "--command", "ext")
        code0, default = invoke_json("--input", str(DATA / "canonical_l2.json"), "--command", "ext")
        assert code == code0 == 0
        del explicit["meta"]["input"], default["meta"]["input"]
        assert explicit == default

    def test_noncommuting_diamond_is_datum_error(self, tmp_path):
        gen = {"tau_rank": 0, "to_open": [], "generators": [{"degree": 2, "signs": []}]}
        kdatum = {j: gen for j in ("-", "1", "2", "1+2")}
        kdatum["restrictions"] = {pair: {"tau_map": [], "gens": [[["1", [1]]]]} for pair in self.PAIRS}
        kdatum["restrictions"]["2>1+2"] = {"tau_map": [], "gens": [[["2", [1]]]]}
        p = _canonical_l2_with_kdatum(tmp_path, kdatum)
        code, payload = invoke_json("--input", str(p), "--command", "validate")
        assert code == 2
        assert "do not commute" in payload["error"]["message"]


class TestBooleansAreNotIntegers:
    def _run(self, tmp_path, edit):
        doc = json.loads((DATA / "canonical_l1.json").read_text())
        edit(doc)
        p = tmp_path / "bool.json"
        p.write_text(json.dumps(doc))
        return invoke_json("--input", str(p), "--command", "validate")

    def test_cutoff_false_rejected(self, tmp_path):
        code, payload = self._run(tmp_path, lambda d: d.update(cutoff=False))
        assert code == 1
        assert "cutoff" in payload["error"]["message"]

    def test_l_true_rejected(self, tmp_path):
        code, payload = self._run(tmp_path, lambda d: d["symmetric"].update(l=True))
        assert code == 1
        assert "'l'" in payload["error"]["message"]

    def test_m_true_rejected(self, tmp_path):
        code, payload = self._run(tmp_path, lambda d: d["symmetric"].update(m=True))
        assert code == 1
        assert "'m'" in payload["error"]["message"]

    def test_character_bits_neither_booleans_nor_floats(self, tmp_path):
        for bit in (True, False, 1.0, 0.0):
            p = _edited(tmp_path, "p1_halfint", lambda d: d.update(labels=[{"orbit": [], "character": [bit]}]))
            code, payload = invoke_json("--input", str(p), "--command", "labels")
            assert code == 1, bit
            assert "labels[0].character" in payload["error"]["message"], bit
        for bits in ("1", [1], ["1"]):
            p = _edited(tmp_path, "p1_halfint", lambda d: d.update(labels=[{"orbit": [], "character": bits}]))
            code, payload = invoke_json("--input", str(p), "--command", "labels")
            assert code == 0, bits
            assert payload["labels"][0]["character"] == "1"


def _edited(tmp_path, name, edit):
    doc = json.loads((DATA / f"{name}.json").read_text())
    edit(doc)
    p = tmp_path / f"edited_{name}.json"
    p.write_text(json.dumps(doc))
    return p


class TestToricIntegerRows:
    def _validate(self, tmp_path, key, value):
        p = _edited(tmp_path, "p1_halfint", lambda d: d["toric"].update({key: value}))
        return invoke_json("--input", str(p), "--command", "validate")

    def test_non_integer_ray_entry(self, tmp_path):
        code, payload = self._validate(tmp_path, "rays", [["a"], [-1]])
        assert code == 1
        assert "toric.rays[0][0]" in payload["error"]["message"]

    def test_non_integer_cone_entry(self, tmp_path):
        code, payload = self._validate(tmp_path, "max_cones", [[0], ["x"]])
        assert code == 1
        assert "toric.max_cones[1][0]" in payload["error"]["message"]

    def test_non_integer_overlattice_generator(self, tmp_path):
        code, payload = self._validate(tmp_path, "overlattice_generators", [[0.5]])
        assert code == 1
        assert "toric.overlattice_generators[0][0]" in payload["error"]["message"]

    def test_ray_that_is_not_a_row(self, tmp_path):
        code, payload = self._validate(tmp_path, "rays", [1, [-1]])
        assert code == 1
        assert "toric.rays[0]" in payload["error"]["message"]


class TestIncompleteKdatum:
    def _validate(self, tmp_path, edit):
        p = _edited(tmp_path, "synthetic_symmetric_rank1", lambda d: edit(d["symmetric"]["Kdatum"]))
        return invoke_json("--input", str(p), "--command", "validate")

    def test_missing_tau_rank(self, tmp_path):
        code, payload = self._validate(tmp_path, lambda k: k["-"].pop("tau_rank"))
        assert code == 1
        assert "'tau_rank'" in payload["error"]["message"]

    def test_missing_to_open(self, tmp_path):
        code, payload = self._validate(tmp_path, lambda k: k["1"].pop("to_open"))
        assert code == 1
        assert "'to_open'" in payload["error"]["message"]

    def test_missing_generators(self, tmp_path):
        code, payload = self._validate(tmp_path, lambda k: k["-"].pop("generators"))
        assert code == 1
        assert "'generators'" in payload["error"]["message"]

    def test_missing_tau_map(self, tmp_path):
        code, payload = self._validate(tmp_path, lambda k: k["restrictions"]["->1"].pop("tau_map"))
        assert code == 1
        assert "'tau_map'" in payload["error"]["message"]


class TestKdatumTypes:
    """Wrong JSON types in K-datum rows and polynomials exit 1 and name their path."""

    def _validate(self, tmp_path, edit):
        p = _edited(tmp_path, "synthetic_symmetric_rank1", lambda d: edit(d["symmetric"]["Kdatum"]))
        return invoke_json("--input", str(p), "--command", "validate")

    def test_non_bit_signs(self, tmp_path):
        code, payload = self._validate(tmp_path, lambda k: k["-"]["generators"][0].update(signs=["a"]))
        assert code == 1
        assert "symmetric.Kdatum['-'].generators[0].signs[0]" in payload["error"]["message"]

    def test_non_bit_to_open(self, tmp_path):
        code, payload = self._validate(tmp_path, lambda k: k["1"].update(to_open=[["x"]]))
        assert code == 1
        assert "symmetric.Kdatum['1'].to_open[0][0]" in payload["error"]["message"]

    def _restriction(self, tmp_path, **edit):
        return self._validate(tmp_path, lambda k: k["restrictions"]["->1"].update(edit))

    def test_non_bit_tau_map(self, tmp_path):
        code, payload = self._restriction(tmp_path, tau_map=[["x"]])
        assert code == 1
        assert "symmetric.Kdatum['restrictions']['->1'].tau_map[0][0]" in payload["error"]["message"]

    def test_malformed_gens_polynomial(self, tmp_path):
        at = "symmetric.Kdatum['restrictions']['->1'].gens[0][0]"
        code, payload = self._restriction(tmp_path, gens=[[["1", ["q"]]]])
        assert code == 1
        assert at + "[1][0]" in payload["error"]["message"]
        code, payload = self._restriction(tmp_path, gens=[[["x", [1]]]])
        assert code == 1
        assert at + "[0]" in payload["error"]["message"]


class TestUnknownKdatumKeys:
    """A K-datum key that names no J set or no covering pair is a datum error."""

    def _validate(self, tmp_path, edit):
        p = _edited(tmp_path, "synthetic_symmetric_rank1", lambda d: edit(d["symmetric"]["Kdatum"]))
        return invoke_json("--input", str(p), "--command", "validate")

    def test_unknown_j_key(self, tmp_path):
        code, payload = self._validate(tmp_path, lambda k: k.update(zz=k["-"]))
        assert code == 2
        assert "'zz'" in payload["error"]["message"]

    def test_unknown_restriction_key(self, tmp_path):
        code, payload = self._validate(tmp_path, lambda k: k["restrictions"].update(x={"tau_map": [[1]]}))
        assert code == 2
        assert "'x'" in payload["error"]["message"]


class TestDigestPin:
    """ext and check-all stdout at seed 2026 match the benchmark's recorded digests;
    check-all at seed 7, labels, cohomology, hilbert, validate, faces and the ext
    variants match the digests recorded below."""

    # check-all --seed 7: the seeded samplers (sampled triples, quadrant samples,
    # identity fuzz) draw other elements than at 2026
    CHECK_ALL_SEED7 = {
        "canonical_l1": "d7c2a56a16129f110c35ca41810c26cb723f6c2e140dcb3e4925f8cb5dc0fa90",
        "canonical_l2": "c30e4a3e1a7d057040985cbc77ce37dfd4c36fc0fb39b21ec6ee8fa981dddf92",
        "p1_halfint": "e2bdeac00bcbf7de2ef584957937e99b8d99216ae199d3a794e9c96f5af94b2e",
        "p1_trivial": "4418d01c4782738e569e57ed8967e6aec16bf2426849900f364ff142f1e127d5",
        "p1xp1": "ba61a6edaddde9a7420953e9c807500e14e699cc2eb01506588472e278d21215",
        "p2": "0e12b3e739bb0d269919b8bd60e36c94a70a5ffa3d0a0d4f03380db33bd55063",
        "synthetic_symmetric_rank1": "58f901aaf84ce6631abe46ba0dc883df21d916a370a73081dc0e8653f614ee41",
    }

    COHOMOLOGY = {
        "canonical_l1": "3d779ce2fc471566104b3f71235723c2e09639c524abf93d4081a133c33eddde",
        "canonical_l2": "e78f8ff21a12cbd60ebb3ee97d9513e97ef5c5852e23c1210b41734efa080111",
        "p1_halfint": "ad9ea0a2c119b4d8fca59cfe48b55f0191cfa4560d969fa021d7be879fd603ac",
        "p1_trivial": "7ff2fdb9c200693c2e39857f519cf135dc6639f1062bbb08e2f1342510ace900",
        "p1xp1": "59c9c44726f470b75c3413bc06225954b712a0d33dae971e51b6712e63cd5799",
        "p2": "962f366b74c1f101cb1533bbe1759c6285da099ed7da84a2e812f0563e08f0ba",
        "synthetic_symmetric_rank1": "50091f53f5f4dcc9fd83352c5135b629a99e3211a02b2edf29fd06da8c28c5b6",
    }

    LABELS = {
        "canonical_l1": "ce75cb738d76a7a964d456a219466ef587c098db96ee5acc28bc80c015df0443",
        "canonical_l2": "1c4f96d9768a9c83b343e53359e63cbb98628784a2bda33fda2a5e2a684b0d79",
        "p1_halfint": "334b984a6816f7698bb40a330fa2a1cf96c6f559a6d9f2d65b810aaf0452e096",
        "p1_trivial": "c9d60f64dc1c2f8651bfee6196b0f613058b45517b7d0615bcc055117e254033",
        "p1xp1": "07affe07de365b857303da13d3ec1473c7c0593b29ce14269c0a3321ff64eaf6",
        "p2": "2b0527d1040263f64fcce97f3b2220b0407bd0601b034fa0a2bfcaf67dc8e8d2",
        "synthetic_symmetric_rank1": "7e9b3c53a71b280c123f2fc9853c456d5e3632ffb34e6fa03b153d9843f7862b",
    }

    # hilbert stdout as JSON, as TSV and with --block 0:0
    HILBERT = {
        "canonical_l1": ("0bcad5bf2b706dff16a549ea3b82868cf3550cc8d3d48f866c3faafb1e8722d7",
                        "5eccb13b0b55dce614bc01cc25f25bacaa59de1f27ac1e7bee48f29d68878680",
                        "8b338f5fa331f6a737593f14027cb5c3d3ce46e8c0b9c7f7b88ff9bce6301f3f"),
        "canonical_l2": ("c997235878ddf0d084ab9f0273d8751c36fabfab01030ab735b2caed7f673e69",
                        "ecd907c244571572bd160a246e8887e57a63ef1b007b4c78192086be878cfe46",
                        "72d74eec53c81af30fe5bc660f32a2cc58891bd167ed41131589eb022b26fda4"),
        "p1_halfint": ("75d0b929e84d43b08246252369a4195788a9f8682b52c1d31a77725a8012fc5e",
                      "35d73022cbeb3b652e6874b5fe5b49616a8a8bde832accc10f898a59f6b40743",
                      "ff53f1a2318766f8a90454153e4c3dd780c74704301aace1919793630a9a1716"),
        "p1_trivial": ("ec62d592b818ed5f4cf261326b06f276d8505a53456ec63527e5661aab015567",
                      "02b99ba6d6785fc161643b09e0013f57a9b4fbf4fb841015eb2489aaae09153d",
                      "ab6d327db632f2b2ae053313aed0bb25e671580dcb1d2eee51fa76c2b68af4d1"),
        "p1xp1": ("81d36a0e11e4770b1b945eda61c9046418c50a06bb0e624a7ece788ae3cacfd9",
                 "ff9c1137783ebe2213337cb0bd95a0e4ced21cad16c2170c43f33d7bd528dad8",
                 "6ebe11f25a7c2d914d58399fc1ebafdaeb874f712ea6960d429f105ae08cf0f8"),
        "p2": ("8d13903e61ccc9932c6aa7263e1fff1393c344f55d70f63ab055b88da262f5b4",
              "3001a2ffff733d070de8b446f744647907375a2bb74807ea8326f242e15c22ee",
              "35b90dc3d90269ad8868c0756391dbf981917e7ceffbef02f2db60baaec7ce5e"),
        "synthetic_symmetric_rank1": ("716149cadbb3be50a415b8aadd6b5d6493cb0f58d42cdb6412ef6d384af301f1",
                                     "0f1abd5cc891c12552af5e1b411a5520202127ced82280cf5a41baf1736b855e",
                                     "bb693a552798e78fae3e9d4f99144f28e89b414818b4fa99c24cbb7c225003f4"),
    }

    # validate and faces as JSON and TSV, ext as TSV and with --block 0:1
    VARIANTS = (("validate",), ("validate", "--format", "tsv"), ("faces",), ("faces", "--format", "tsv"),
                ("ext", "--format", "tsv"), ("ext", "--block", "0:1"))
    VARIANT_DIGESTS = {
        "p1_trivial": ("7d87d142cece4c58c769b5e43a0fb0ae4b3f87141ce5c9db7ffb4e5223223c73",
                       "9a2303fef5c9c3c223aea493ceb849b5aa0fda3834a4cad9cd3d719c1b3cf684",
                       "2cceca2360b8cb6d5ebd4ab6e2608aa4230e863e24a0ead96068e38d91e757b7",
                       "05f377f85c73644337179218c8f676a3da1ba8a8171d12625d296127739fdedd",
                       "0202de2fb0f530e22106d4de821ab372c0567543c6362b715bff873a1093fc75",
                       "7e8efec0a105293ae2189adbe16f80333f6e8bcf5eb4aa9b2b79848884f3a2a3"),
        "p1_halfint": ("035fced18d7a6987965d57bf0002341d8174376624e7d6546d05e681077a105f",
                       "60e70fc56c4d5db688daa4554144866b2a99d0e4fd9e7ff573403af2a3e8b2a3",
                       "c24a5c20e2af1cd90e6611ef9fb372a74ba6b1ea8713f8f3f435272a945672c7",
                       "5a28caa754dadb4f8ee7d1ad32cd52dba476113736b8d1d6ab1ae6d792cd8a93",
                       "8ca4a6307be72d7b1958f301b7549fbd1f9ced27b6f28bbdd98b8944374cf64b",
                       "bef9f67bc09a52fca9dec53432f270179d983bbb4b1b8724d525ac321eee3e0b"),
        "canonical_l1": ("ae21c40f1a1baebae77b8e8334b921d06c3cbb6fffcd7461c9d9cc9aa6ca9922",
                         "039cd65bd10e52d763646a2bb0c51b0b1315a9fe7b38ad480274d9844a8f1703",
                         "c925e39bfee60ac6feb0718fd25e7ca395d347986c46b9124c83511f491d8295",
                         "fda87e697e017cc3d9febca27fe6c6d25fb4a428ddc088fbc4b1324600907884",
                         "d4820c9db17fad4f66572e2a2bc314195cab055803a048facaf4a32bc0fe0175",
                         "b181ce97226aafde55566778994fe0f5fbeb0979824069a41a1eb8d5027df969"),
        "synthetic_symmetric_rank1": ("15a29371497474fcc8256dcb68997547c4ef3b36313f07b0b37c094be27a9f04",
                                      "2e5f6081bfd1af572bacdf0a7491fb481adc3a3ee34e9e23c28855dc37babd0a",
                                      "b6e68f4a2fbc55b697840fe88e351724f3dd46bb5cbb9ced23b8dca55ad3afc2",
                                      "58d3a7584991785ff46e82347de5393e774545420182c5b39811254004b9629c",
                                      "42fd9ae3a9676cca96b603dade028e9e7ea87f6ccb76129d05092906b83d859c",
                                      "8acc343ff6ea86103552e05a906e2fa8abde8d0c8f94202d5cab073c275b3511"),
    }

    # ext on generated P^3 at cutoff 6, as JSON and as TSV: many basis vectors on
    # several faces.  The file name is fixed, since meta.input is its basename.
    P3_DOC = {"cutoff": 6, "labels": "all", "mode": "toric",
              "toric": {"lattice_rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                        "max_cones": [list(c) for c in itertools.combinations(range(4), 3)],
                        "overlattice_generators": []}}
    P3_EXT = ("e8470caa079576655d66e2d44a4a93f45c558187cdc43c68e9edbdd8589ac512",
              "45c8584336c4a0ab03ec4801808a55a4fc001ed3044392005d27e3fa7b4fe5d2")

    DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    NAMES = ("p1_trivial", "p1_halfint", "canonical_l1", "synthetic_symmetric_rank1")

    def _check(self, command, workload):
        want = json.loads(self.DIGESTS.read_text())[workload]
        for name in self.NAMES:
            code, text = invoke("--input", str(DATA / f"{name}.json"), "--command", command,
                                "--seed", "2026")
            assert code == 0, text
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want[name]["sha256"], name

    def test_ext_digests(self):
        self._check("ext", "ext-shipped")

    def test_check_all_digests(self):
        self._check("check-all", "checkall-shipped")

    def test_ext_digests_on_generated_p3(self, tmp_path):
        doc = tmp_path / "p3.json"
        doc.write_text(json.dumps(self.P3_DOC))
        for extra, digest in zip(((), ("--format", "tsv")), self.P3_EXT):
            code, text = invoke("--input", str(doc), "--command", "ext", *extra)
            assert code == 0, text
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, extra

    def test_check_all_digests_at_seed_7(self):
        for name, digest in self.CHECK_ALL_SEED7.items():
            code, text = invoke("--input", str(DATA / f"{name}.json"), "--command", "check-all",
                                "--seed", "7")
            assert code == 0, text
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, name

    def test_hilbert_digests(self):
        variants = ((), ("--format", "tsv"), ("--block", "0:0"))
        for name, digests in self.HILBERT.items():
            for extra, digest in zip(variants, digests):
                code, text = invoke("--input", str(DATA / f"{name}.json"), "--command", "hilbert", *extra)
                assert code == 0, text
                assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, (name, extra)

    def test_validate_faces_and_ext_variant_digests(self):
        for name, digests in self.VARIANT_DIGESTS.items():
            for (command, *extra), digest in zip(self.VARIANTS, digests):
                code, text = invoke("--input", str(DATA / f"{name}.json"), "--command", command, *extra)
                assert code == 0, text
                assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, (name, command, extra)

    def test_labels_digests(self):
        for name, digest in self.LABELS.items():
            code, text = invoke("--input", str(DATA / f"{name}.json"), "--command", "labels")
            assert code == 0, text
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, name

    def test_cohomology_digests(self):
        for name, digest in self.COHOMOLOGY.items():
            code, text = invoke("--input", str(DATA / f"{name}.json"), "--command", "cohomology")
            assert code == 0, text
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, name

    def test_faces_and_labels_build_no_sheaf(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("faces and labels must not build H")

        monkeypatch.setattr(cli, "build_H", refuse)
        for command in ("faces", "labels"):
            code, text = invoke("--input", str(DATA / "p2.json"), "--command", command)
            assert code == 0, text


class TestSymmetricTypes:
    """Wrong JSON types in a symmetric document exit 1 and name their path."""

    def _validate(self, tmp_path, edit):
        p = _edited(tmp_path, "synthetic_symmetric_rank1", edit)
        return invoke_json("--input", str(p), "--command", "validate")

    def _label(self, tmp_path, orbit, character):
        return self._validate(tmp_path, lambda d: d.update(
            labels=[{"orbit": [], "character": "0"}, {"orbit": orbit, "character": character}]))

    def test_non_bit_character(self, tmp_path):
        code, payload = self._label(tmp_path, [], "x")
        assert code == 1
        assert "labels[1].character" in payload["error"]["message"]

    def test_integer_orbit(self, tmp_path):
        code, payload = self._label(tmp_path, 3, "0")
        assert code == 1
        assert "labels[1].orbit" in payload["error"]["message"]

    def test_integer_divisor(self, tmp_path):
        code, payload = self._validate(tmp_path, lambda d: d["symmetric"].update(V=[1]))
        assert code == 1
        assert "symmetric.V" in payload["error"]["message"]

    def test_orbit_that_is_not_a_list(self, tmp_path):
        code, payload = self._validate(tmp_path, lambda d: d["symmetric"].update(S=[5]))
        assert code == 1
        assert "symmetric.S[0]" in payload["error"]["message"]

    def test_non_integer_jmap_entry(self, tmp_path):
        code, payload = self._validate(tmp_path, lambda d: d["symmetric"]["Jmap"].update(v=["a"]))
        assert code == 1
        assert "symmetric.Jmap['v'][0]" in payload["error"]["message"]

    def test_subspace_that_is_not_a_list(self, tmp_path):
        code, payload = self._validate(tmp_path, lambda d: d["symmetric"]["D_subspaces"].update(v="zz"))
        assert code == 1
        assert "symmetric.D_subspaces['v']" in payload["error"]["message"]


def _generated_documents():
    """perfbench/documents.py, which generates the benchmark's and CI's documents."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_documents", Path(__file__).resolve().parents[1] / "perfbench" / "documents.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTableEmission:
    """ext writes each table row as text as it is made.  Its bytes equal the
    emitters' output for the table held as lists of four str, which the
    reference below builds from ExtAlgebra.row."""

    @staticmethod
    def _list_payload(path, block):
        doc = load_document(str(path))
        datum, _, catalog, _ = cli._datum_catalog(doc)
        ext = ext_algebra(build_H(datum, catalog, doc["cutoff"]))
        blocks = sorted(ext.H.blocks) if block is None else [block]
        names = [b.name for b in ext.basis]
        out = []
        for i, j in blocks:
            right = [(j, c) for c in range(len(catalog)) if (j, c) == (i, j) or (j, c) in blocks]
            table = [[names[x], names[y], names[z], str(c)]
                     for x in ext.by_block[(i, j)] for blk in right
                     for y, product in ext.row(x, blk) for z, c in sorted(product.items())]
            out.append({"alpha": i, "beta": j, "hilbert": ext.block_hilbert((i, j)),
                        "basis": [cli._basis_entry(ext, idx) for idx in ext.by_block[(i, j)]],
                        "table": table})
        return {"unit": {ext.basis[k].name: str(v) for k, v in sorted(ext.unit_coeffs().items())},
                "truncated_pairs": ext.truncated_pairs,
                "blocks": out,
                "meta": {"input": path.name, "command": "ext", "cutoff": doc["cutoff"],
                         "seed": cli.DEFAULT_SEED, "format_version": 1}}

    def test_bytes_equal_the_list_table(self, tmp_path):
        docs = _generated_documents()
        for name, doc in (("p3", docs.projective_space(3, cutoff=6)), ("f1", docs.hirzebruch(1, cutoff=8)),
                          ("l3", docs.canonical_symmetric(3, cutoff=8))):
            path = tmp_path / f"{name}.json"
            path.write_text(docs.dump(doc))
            for block, extra in ((None, ()), ((0, 0), ("--block", "0:0"))):
                want = self._list_payload(path, block)
                assert any(b["table"] for b in want["blocks"]), (name, block)
                assert cli.emit_json(want) == json.dumps(want, sort_keys=True, separators=(",", ":")) + "\n"
                for fmt, emit in (("json", cli.emit_json), ("tsv", cli.emit_tsv)):
                    code, text = invoke("--input", str(path), "--command", "ext", "--format", fmt, *extra)
                    assert code == 0, text
                    assert text == emit(want), (name, block, fmt)

    def test_traced_peak_of_ext(self):
        # canonical_l2: 47,785 table rows and 1.33 MiB of output; held as lists
        # of four str before one json.dumps, the rows made the peak 11.4 MiB
        buf = io.StringIO()
        tracemalloc.start()
        try:
            code = run(["--input", str(DATA / "canonical_l2.json"), "--command", "ext"], out=buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 6 * 2**20, peak


class TestBuildOnce:
    """A --block command builds the datum and its label catalog once."""

    def test_block_commands_build_one_catalog(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build_catalog(*args, **kwargs)

        monkeypatch.setattr(cli, "build_catalog", counting)
        for command in ("hilbert", "ext"):
            calls.clear()
            code, _ = invoke("--input", str(DATA / "p1_trivial.json"), "--command", command,
                             "--block", "0:0")
            assert code == 0
            assert len(calls) == 1, command


class TestHilbertUnitCheck:
    """hilbert builds no ext basis but still rejects a diagonal unit that is not a section."""

    def test_no_ext_algebra(self, monkeypatch):
        def refuse(self, H):
            raise AssertionError("hilbert built an ext algebra")

        monkeypatch.setattr(ExtAlgebra, "__init__", refuse)
        code, payload = invoke_json("--input", str(DATA / "p1xp1.json"), "--command", "hilbert")
        assert code == 0 and len(payload["blocks"]) == 81

    def test_unit_off_the_sections_exits_2(self, monkeypatch):
        monkeypatch.setattr(SectionSpace, "contains", lambda self, degree, vector: False)
        for extra in ((), ("--block", "0:1")):
            code, payload = invoke_json("--input", str(DATA / "p1_trivial.json"),
                                        "--command", "hilbert", *extra)
            assert code == 2
            assert payload["error"] == {"kind": "datum-invalid",
                                        "message": "diagonal unit is not a global section"}


# ---------------------------------------------------------------------------
# mutated documents: a documented exit code, never a traceback

# small integers only: the engine enumerates 2^l sets J and 2^m characters, so a large l or m only costs time
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2, 4), st.sampled_from([0.5, 1.0]),
                   st.sampled_from(["", "0", "1", "x", "-", "1/2", "v1", "r0"]))
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.sampled_from(["0", "1", "-", "mode", "degree", "signs"]),
                                        inner, max_size=2),
                      max_leaves=6)
SHIPPED = sorted(p.stem for p in DATA.glob("*.json"))


def _paths(node, at=()):
    """Every path to a node below the root: key and index sequences."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, child in items:
        yield at + (k,)
        yield from _paths(child, at + (k,))


class TestMutatedDocuments:
    """A shipped document with one or two JSON nodes replaced or deleted exits 0-3, never with a traceback."""

    @staticmethod
    def _run(name, data, commands):
        """Runs the commands at cutoff 4 on the document with one or two nodes mutated."""
        doc = json.loads((DATA / f"{name}.json").read_text())
        for _ in range(data.draw(st.integers(1, 2), label="mutations")):
            paths = list(_paths(doc))
            if not paths:
                break
            *head, last = data.draw(st.sampled_from(paths), label="path")
            parent = doc
            for k in head:
                parent = parent[k]
            if data.draw(st.booleans(), label="delete"):
                del parent[last]
            else:
                parent[last] = data.draw(VALUES, label="value")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            for command in commands:
                code, text = invoke("--input", str(path), "--command", command, "--cutoff", "4")
                assert code in (0, 1, 2, 3), text
                if code in (1, 2):
                    assert set(json.loads(text)) == {"error"}

    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(SHIPPED), st.data())
    def test_exit_code_without_traceback(self, name, data):
        self._run(name, data, ("validate", "faces", "labels", "hilbert", "ext", "cohomology"))

    # fewer examples: every check-all run that passes spends ~0.3 s in the fixed
    # 10,000-trial identity fuzz, whatever the document
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(SHIPPED), st.data())
    def test_check_all_exit_code_without_traceback(self, name, data):
        self._run(name, data, ("check-all",))

    def test_ragged_subspace_rows(self, tmp_path):
        # rows of different lengths used to reach the F2 echelon and raise IndexError
        p = _edited(tmp_path, "canonical_l2", lambda d: d["symmetric"]["D_subspaces"]["v1+v2"][0].pop())
        code, payload = invoke_json("--input", str(p), "--command", "validate")
        assert code == 2 and "must have length" in payload["error"]["message"]

    def test_fan_without_cones(self, tmp_path):
        # an empty cone list used to raise KeyError in the completeness walk
        p = _edited(tmp_path, "p1_halfint", lambda d: d["toric"].update(rays=[], max_cones=[]))
        code, payload = invoke_json("--input", str(p), "--command", "validate")
        assert code == 2 and "no maximal cones" in payload["error"]["message"]

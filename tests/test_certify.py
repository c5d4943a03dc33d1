"""Certificate emit/load/verify round trips and negative controls."""

import json
import pathlib

import pytest

from tripaths import certify
from tripaths.construct import build_structure
from tripaths.errors import SchemaError, VersionMismatch, CertificateError
from tripaths.graphs import build, full_view
from tripaths.pairing import pair_structure
from tripaths.perms import Family

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _fresh_certificate(n, omega):
    g = build(n, Family.WHEEL)
    structure, trace = build_structure(g, omega, seed=0)
    omega_set = pair_structure(full_view(g), structure)
    return certify.make_certificate(g, structure, trace, omega_set)


def test_golden_roundtrip_identity():
    for name in ("certificate-n4.json", "certificate-n5.json"):
        text = (GOLDEN / name).read_text()
        cert = certify.load_text(text)
        assert certify.emit(cert) == text


def test_golden_bytes_reproduced_from_scratch():
    for n, omega in ((4, (0, 3, 4)), (5, (0, 30, 48))):
        cert = _fresh_certificate(n, omega)
        golden = (GOLDEN / f"certificate-n{n}.json").read_text()
        assert certify.emit(cert) == golden


def test_golden_verifies_ok():
    for name in ("certificate-n4.json", "certificate-n5.json"):
        cert = certify.load(str(GOLDEN / name))
        status, rows = certify.verify_certificate(cert)
        assert status == "ok", rows
        assert all(ok for _, ok, _ in rows)


def test_corrupted_edge_is_invalid():
    doc = json.loads((GOLDEN / "certificate-n4.json").read_text())
    # break one interior step of one bundle path into a non-edge hop
    path = doc["bundles"]["ab"][1]
    path[1], path[2] = path[2], path[1]
    cert = certify.load_text(json.dumps(doc))
    status, rows = certify.verify_certificate(cert)
    assert status == "invalid"
    failed = {name for name, ok, _ in rows if not ok}
    assert "structure-valid" in failed


def test_wrong_bundle_counts_fail():
    doc = json.loads((GOLDEN / "certificate-n4.json").read_text())
    doc["bundles"]["bc"] = doc["bundles"]["bc"][:1]
    cert = certify.load_text(json.dumps(doc))
    status, rows = certify.verify_certificate(cert)
    assert status != "ok"


def test_tampered_formula_is_mismatch():
    doc = json.loads((GOLDEN / "certificate-n4.json").read_text())
    doc["pi3"]["formula"] = 4
    cert = certify.load_text(json.dumps(doc))
    status, rows = certify.verify_certificate(cert)
    assert status == "mismatch"
    failed = {name for name, ok, _ in rows if not ok}
    assert failed == {"pi3-formula"}


def test_certificate_without_a_pi3_claim_verifies():
    # a certificate from outside may carry no pi3 claim: it loads, and
    # the verifier derives no pi3 row for it
    doc = json.loads((GOLDEN / "certificate-n4.json").read_text())
    doc["pi3"] = None
    cert = certify.load_text(json.dumps(doc))
    assert cert.pi3 is None
    status, rows = certify.verify_certificate(cert)
    assert status == "ok", rows
    assert not [name for name, _, _ in rows if name.startswith("pi3-")]


def test_tampered_recorded_check_is_mismatch():
    doc = json.loads((GOLDEN / "certificate-n4.json").read_text())
    doc["checks"][0]["pass"] = False
    cert = certify.load_text(json.dumps(doc))
    status, _ = certify.verify_certificate(cert)
    assert status == "mismatch"


def test_unknown_key_rejected():
    doc = json.loads((GOLDEN / "certificate-n4.json").read_text())
    doc["surprise"] = 1
    with pytest.raises(SchemaError, match="surprise"):
        certify.load_text(json.dumps(doc))


def test_missing_key_named():
    doc = json.loads((GOLDEN / "certificate-n4.json").read_text())
    del doc["omega_paths"]
    with pytest.raises(SchemaError, match="omega_paths"):
        certify.load_text(json.dumps(doc))


def test_version_bump_rejected():
    doc = json.loads((GOLDEN / "certificate-n4.json").read_text())
    doc["schema_version"] = certify.SCHEMA_VERSION + 1
    with pytest.raises(VersionMismatch):
        certify.load_text(json.dumps(doc))


def test_non_object_rejected():
    with pytest.raises(SchemaError):
        certify.load_text("[1, 2, 3]")


def test_bad_json_rejected():
    with pytest.raises(CertificateError):
        certify.load_text("{not json")


def test_save_load_file_roundtrip(tmp_path):
    cert = _fresh_certificate(4, (0, 3, 4))
    path = tmp_path / "cert.json"
    certify.save(cert, str(path))
    assert certify.load(str(path)) == cert


def test_emit_is_stable_key_sorted():
    cert = _fresh_certificate(4, (0, 3, 4))
    text = certify.emit(cert)
    keys = list(json.loads(text).keys())
    assert keys == sorted(keys)
    assert text.endswith("\n")
    assert "  " in text  # indented, human-readable


def test_emit_keeps_the_json_numbers_of_a_loaded_certificate():
    # every field is written back as read: a float stays a number
    doc = json.loads((GOLDEN / "certificate-n4.json").read_text())
    doc["case"]["auxiliary"]["weight"] = 0.5
    doc["pi3"]["r"] = 1.5
    doc["solver"]["seed"] = 2.0
    doc["checks"][0]["pass"] = 1.0
    text = certify.emit(certify.load_text(json.dumps(doc)))
    assert json.loads(text) == doc
    assert '"weight": 0.5' in text and '"seed": 2.0' in text

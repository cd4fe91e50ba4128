"""Frozen reference of ``verify-cert`` when it read the graph before the certificate.

``cmd_verify_cert`` loads the graph and builds the problem first, then opens
the certificate and parses it with every name list mapped to ids as it is
read (``certificate_from_json`` below is that parse), and then checks it:
the declared q, d and core first, with the messages of that time, then a
deletion by the library's physical recount and a cut by the frozen
position-level ``_reference_absorb.verify_parity_cut``.  Swapped in for
``modcert.cli._cmd_verify_cert``, it runs under the same ``cli.main`` and so
maps exceptions to the same exit codes.
"""

from __future__ import annotations

import json

import _reference_absorb
from modcert import cli
from modcert.absorb import SCHEMA_VERSION, DeletionCertificate, ParityCut, verify_deletion_certificate


def cmd_verify_cert(args) -> int:
    graph = cli._load(args)
    problem = cli._problem_from_args(args, graph)
    with open(args.certificate, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    certificate = certificate_from_json(payload, ids_of=graph.ids_of)
    valid = verify_certificate(problem, certificate)
    cli._emit(args, {"command": "verify-cert", "valid": valid}, [f"valid: {valid}"])
    return 0 if valid else 1


def verify_certificate(problem, cert) -> bool:
    if cert.q != problem.q:
        raise ValueError(f"certificate modulus {cert.q} does not match the problem's {problem.q}")
    if cert.lift != problem.lift:
        raise ValueError(f"certificate lift {cert.lift} does not match the problem's {problem.lift}")
    if tuple(cert.core) != problem.core:
        raise ValueError("certificate core does not match the problem core")
    if isinstance(cert, DeletionCertificate):
        return verify_deletion_certificate(problem, cert)
    return _reference_absorb.verify_parity_cut(problem, cert.members)


def certificate_from_json(payload, ids_of):
    if not isinstance(payload, dict):
        raise ValueError("certificate must be a JSON object")
    if payload.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported certificate version {payload.get('version')!r}")
    q = _json_int(payload, "q")
    lift = _json_int(payload, "d")
    core = tuple(sorted(ids_of(_json_names(payload, "core"))))
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise ValueError("certificate needs a string 'kind'")
    if kind == "deletion":
        entries = payload.get("chosen_traces")
        if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
            raise ValueError("certificate needs a list of objects in 'chosen_traces'")
        chosen = tuple(
            (
                tuple(sorted(ids_of(_json_names(entry, "trace")))),
                tuple(sorted(ids_of(_json_names(entry, "deleted_vertices")))),
            )
            for entry in entries
        )
        residue = payload.get("residue_achieved")
        return DeletionCertificate(
            q=q, lift=lift, core=core, chosen=chosen,
            residue_achieved=None if residue is None else _json_int(payload, "residue_achieved"),
        )
    if kind == "parity-cut":
        members = tuple(sorted(ids_of(_json_names(payload, "parity_cut_Y"))))
        return ParityCut(q=q, lift=lift, core=core, members=members)
    raise ValueError(f"unknown certificate kind {kind!r}")


def _json_int(payload: dict, key: str) -> int:
    value = payload.get(key)
    if type(value) is not int:
        raise ValueError(f"certificate needs an integer {key!r}")
    return value


def _json_names(payload: dict, key: str) -> list[str]:
    value = payload.get(key)
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise ValueError(f"certificate needs a list of vertex names in {key!r}")
    if len(set(value)) != len(value):
        raise ValueError(f"certificate repeats a vertex name in {key!r}")
    return value

"""Independent schedule certification tests.

Acceptance criteria covered here: every schedule the solvers produce
re-validates through :func:`verify_schedule`; LB1/LB2 certificates for
the even-capacity optimal path verify and survive a JSON round-trip;
tampered schedules and tampered witnesses are rejected.
"""

import json

import pytest

from repro import plan
from repro.checks import (
    CertificationError,
    certificate_from_json,
    certificate_to_json,
    certify,
    make_certificate,
    verify_certificate,
    verify_schedule,
)
from repro.checks.certify import LB1Witness, LB2Witness, LowerBoundCertificate
from repro.core.lower_bounds import lower_bound
from repro.core.problem import MigrationInstance
from tests.conftest import even_instance, random_instance

SEEDS = range(6)


class TestVerifySchedule:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_planner_output_verifies(self, seed):
        inst = random_instance(8, 25, seed=seed)
        sched = plan(inst).schedule
        assert verify_schedule(inst, sched.rounds) == sched.num_rounds

    @pytest.mark.parametrize("method", ["general", "saia", "greedy"])
    def test_every_method_verifies(self, method):
        inst = random_instance(8, 25, seed=1)
        sched = plan(inst, method=method).schedule
        assert verify_schedule(inst, sched.rounds) == sched.num_rounds

    def test_even_rounding_verifies_on_even_capacities(self):
        inst = even_instance(8, 25, seed=1)
        sched = plan(inst, method="even_rounding").schedule
        assert verify_schedule(inst, sched.rounds) == sched.num_rounds

    def test_missing_edge_rejected(self):
        inst = random_instance(6, 15, seed=0)
        rounds = [list(rnd) for rnd in plan(inst).schedule.rounds]
        rounds[0] = rounds[0][1:]  # drop one transfer
        with pytest.raises(CertificationError, match="never scheduled"):
            verify_schedule(inst, rounds)

    def test_duplicated_edge_rejected(self):
        inst = random_instance(6, 15, seed=0)
        rounds = [list(rnd) for rnd in plan(inst).schedule.rounds]
        rounds[-1].append(rounds[0][0])
        with pytest.raises(CertificationError, match="more than once"):
            verify_schedule(inst, rounds)

    def test_unknown_edge_rejected(self):
        inst = random_instance(6, 15, seed=0)
        rounds = [list(rnd) for rnd in plan(inst).schedule.rounds]
        rounds[0].append(10_000)
        with pytest.raises(CertificationError, match="unknown edge"):
            verify_schedule(inst, rounds)

    def test_capacity_violation_rejected(self):
        # Two parallel a-b edges in one round exceed c_a = c_b = 1.
        inst = MigrationInstance.from_moves(
            [("a", "b"), ("a", "b")], {"a": 1, "b": 1}
        )
        eids = inst.graph.edge_ids()
        with pytest.raises(CertificationError, match="transfers"):
            verify_schedule(inst, [eids])
        assert verify_schedule(inst, [[eids[0]], [eids[1]]]) == 2

    def test_empty_rounds_are_not_counted(self):
        inst = MigrationInstance.from_moves([("a", "b")], {"a": 1, "b": 1})
        eids = inst.graph.edge_ids()
        assert verify_schedule(inst, [[], eids, []]) == 1


class TestCertificates:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_certificate_verifies_and_matches_lower_bound(self, seed):
        inst = random_instance(8, 25, seed=seed)
        cert = make_certificate(inst)
        assert verify_certificate(inst, cert) == cert.bound
        assert cert.bound == lower_bound(inst)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_even_capacity_optimal_path_is_certified(self, seed):
        """Theorem 4.1: all-even capacities schedule in exactly Δ' rounds."""
        inst = even_instance(8, 30, seed=seed)
        sched = plan(inst).schedule
        report = certify(inst, sched)
        assert report.certified_optimal
        assert report.rounds == inst.delta_prime()
        assert report.gap == 0

    def test_json_round_trip(self):
        inst = random_instance(8, 25, seed=2)
        cert = make_certificate(inst)
        blob = json.dumps(certificate_to_json(cert), sort_keys=True)
        restored = certificate_from_json(json.loads(blob), inst)
        assert restored == cert
        assert verify_certificate(inst, restored) == cert.bound

    def test_certify_accepts_raw_rounds(self):
        inst = random_instance(6, 12, seed=3)
        sched = plan(inst).schedule
        report = certify(inst, [list(r) for r in sched.rounds])
        assert report.rounds == sched.num_rounds
        assert report.method == "unknown"


class TestTamperRejection:
    def _cert(self, seed=4):
        inst = random_instance(8, 25, seed=seed)
        return inst, make_certificate(inst)

    def test_inflated_bound_rejected(self):
        inst, cert = self._cert()
        forged = LowerBoundCertificate(
            bound=cert.bound + 1, lb1=cert.lb1, lb2=cert.lb2, exact=cert.exact
        )
        with pytest.raises(CertificationError, match="only prove"):
            verify_certificate(inst, forged)

    def test_tampered_lb1_degree_rejected(self):
        inst, cert = self._cert()
        assert cert.lb1 is not None
        fake = LB1Witness(
            node=cert.lb1.node,
            degree=cert.lb1.degree + 1,
            capacity=cert.lb1.capacity,
            bound=cert.lb1.bound,
        )
        forged = LowerBoundCertificate(
            bound=cert.bound, lb1=fake, lb2=cert.lb2, exact=cert.exact
        )
        with pytest.raises(CertificationError, match="degree mismatch"):
            verify_certificate(inst, forged)

    def test_tampered_lb2_subset_rejected(self):
        inst, cert = self._cert()
        assert cert.lb2 is not None
        fake = LB2Witness(
            nodes=cert.lb2.nodes[:-1],  # shrink S but keep the claimed stats
            internal_edges=cert.lb2.internal_edges,
            capacity_sum=cert.lb2.capacity_sum,
            bound=cert.lb2.bound,
        )
        forged = LowerBoundCertificate(
            bound=cert.lb2.bound, lb1=None, lb2=fake, exact=cert.exact
        )
        with pytest.raises(CertificationError, match="mismatch"):
            verify_certificate(inst, forged)

    def test_unknown_witness_node_rejected(self):
        inst, cert = self._cert()
        payload = certificate_to_json(cert)
        assert payload["lb1"] is not None
        payload["lb1"]["node"] = "'no-such-disk'"
        with pytest.raises(CertificationError, match="unknown node"):
            certificate_from_json(payload, inst)

    def test_schema_version_checked(self):
        inst, cert = self._cert()
        payload = certificate_to_json(cert)
        payload["schema_version"] = 99
        with pytest.raises(CertificationError, match="schema"):
            certificate_from_json(payload, inst)

    def test_certify_raises_on_forged_certificate(self):
        inst, cert = self._cert()
        sched = plan(inst).schedule
        forged = LowerBoundCertificate(
            bound=cert.bound + 3, lb1=cert.lb1, lb2=cert.lb2, exact=cert.exact
        )
        with pytest.raises(CertificationError):
            certify(inst, sched, certificate=forged)


class TestPatchCertificates:
    def _certificate(self):
        from repro.checks.certify import make_patch_certificate
        from repro.core.delta import InstanceDelta

        delta = InstanceDelta(add_moves=(("a", "b"),))
        prior_rounds = [[0], [1]]
        result_rounds = [[0, 2], [1]]
        cert = make_patch_certificate(
            prior_rounds,
            delta.canonical_payload(),
            result_rounds,
            [("fp0", "reused"), ("fp1", "patched")],
        )
        return cert, delta, prior_rounds, result_rounds

    def test_round_trips_and_verifies(self):
        from repro.checks.certify import verify_patch_certificate

        cert, delta, prior_rounds, result_rounds = self._certificate()
        verify_patch_certificate(
            cert, prior_rounds, delta.canonical_payload(), result_rounds
        )

    def test_rejects_tampered_rounds(self):
        from repro.checks.certify import verify_patch_certificate

        cert, delta, prior_rounds, _result_rounds = self._certificate()
        with pytest.raises(CertificationError, match="result digest"):
            verify_patch_certificate(
                cert, prior_rounds, delta.canonical_payload(), [[0], [1, 2]]
            )

    def test_rejects_unknown_disposition(self):
        from repro.checks.certify import (
            PatchCertificate,
            verify_patch_certificate,
        )

        cert, delta, prior_rounds, result_rounds = self._certificate()
        bad = PatchCertificate(
            prior_digest=cert.prior_digest,
            delta_digest=cert.delta_digest,
            result_digest=cert.result_digest,
            dispositions=(("fp0", "improvised"),),
        )
        with pytest.raises(CertificationError, match="disposition"):
            verify_patch_certificate(
                bad, prior_rounds, delta.canonical_payload(), result_rounds
            )

    def test_delta_order_is_part_of_identity(self):
        from repro.checks.certify import delta_digest
        from repro.core.delta import InstanceDelta

        d1 = InstanceDelta(add_moves=(("a", "b"), ("c", "d")))
        d2 = InstanceDelta(add_moves=(("c", "d"), ("a", "b")))
        assert delta_digest(d1.canonical_payload()) != delta_digest(
            d2.canonical_payload()
        )

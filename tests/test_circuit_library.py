"""Tests for the benchmark circuit library generators."""

import pytest

from repro.circuits.library import (
    CIRCUIT_FAMILIES,
    available_circuits,
    bernstein_vazirani,
    build,
    cat_state,
    counterfeit_coin,
    get_circuit,
    ghz,
    ising,
    multiplier,
    parse_circuit_name,
    qft,
    quantum_knn,
    quantum_volume,
    qugan,
    ripple_carry_adder,
    swap_test,
    vqe_uccsd,
    w_state,
)


class TestGhzAndCat:
    def test_ghz_gate_counts(self):
        circuit = ghz(127)
        assert circuit.num_qubits == 127
        assert circuit.num_two_qubit_gates == 126

    def test_ghz_connectivity_is_a_chain(self):
        circuit = ghz(10)
        pairs = set(circuit.two_qubit_interactions())
        assert pairs == {(q, q + 1) for q in range(9)}

    def test_cat_matches_table2_sizes(self):
        assert cat_state(65).num_two_qubit_gates == 64
        assert cat_state(130).num_two_qubit_gates == 129

    def test_ghz_requires_two_qubits(self):
        with pytest.raises(ValueError):
            ghz(1)


class TestBvAndIsing:
    def test_bv_cx_count_equals_secret_weight(self):
        circuit = bernstein_vazirani(10, secret=[1, 0, 1, 1, 0, 0, 0, 1, 0])
        assert circuit.num_two_qubit_gates == 4

    def test_bv_secret_length_check(self):
        with pytest.raises(ValueError):
            bernstein_vazirani(5, secret=[1, 0])

    def test_bv_all_cx_target_ancilla(self):
        circuit = bernstein_vazirani(8)
        ancilla = 7
        for gate in circuit.gates:
            if gate.is_two_qubit:
                assert gate.qubits[1] == ancilla

    def test_ising_two_qubit_count(self):
        assert ising(34).num_two_qubit_gates == 66
        assert ising(66).num_two_qubit_gates == 130
        assert ising(98).num_two_qubit_gates == 194

    def test_ising_depth_independent_of_width(self):
        assert ising(34).depth() == ising(98).depth()


class TestSwapTestFamily:
    def test_swap_test_two_qubit_count(self):
        assert swap_test(115).num_two_qubit_gates == 456

    def test_swap_test_rejects_even_width(self):
        with pytest.raises(ValueError):
            swap_test(10)

    def test_knn_two_qubit_counts(self):
        assert quantum_knn(67).num_two_qubit_gates == 264
        assert quantum_knn(129).num_two_qubit_gates == 512

    def test_qugan_close_to_table2(self):
        assert abs(qugan(71).num_two_qubit_gates - 418) <= 5
        assert abs(qugan(111).num_two_qubit_gates - 658) <= 5

    def test_qugan_uses_all_qubits(self):
        circuit = qugan(39)
        assert len(circuit.active_qubits()) == 39


class TestArithmetic:
    def test_adder_uses_all_qubits(self):
        circuit = ripple_carry_adder(64)
        assert circuit.num_qubits == 64
        assert len(circuit.active_qubits()) == 64

    def test_adder_rejects_odd_width(self):
        with pytest.raises(ValueError):
            ripple_carry_adder(7)

    def test_adder_two_qubit_count_scales_linearly(self):
        small = ripple_carry_adder(16).num_two_qubit_gates
        large = ripple_carry_adder(32).num_two_qubit_gates
        assert large > small
        assert large / small == pytest.approx(2.0, rel=0.25)

    def test_multiplier_is_dense_and_deep(self):
        circuit = multiplier(45)
        assert circuit.num_two_qubit_gates > 2000
        assert circuit.depth() > circuit.num_qubits

    def test_counterfeit_coin_two_qubit_count(self):
        assert counterfeit_coin(64).num_two_qubit_gates == 64

    def test_counterfeit_coin_remote_gates_share_ancilla(self):
        circuit = counterfeit_coin(16)
        ancilla = 15
        for gate in circuit.gates:
            if gate.is_two_qubit:
                assert ancilla in gate.qubits


class TestTransforms:
    def test_qft_decomposed_two_qubit_count(self):
        n = 12
        circuit = qft(n)
        expected = n * (n - 1) + 3 * (n // 2)  # 2 CX per CP + 3 CX per swap
        assert circuit.num_two_qubit_gates == expected

    def test_qft_without_decomposition_uses_cp(self):
        circuit = qft(6, decompose_controlled_phase=False, with_swaps=False)
        assert circuit.count_ops().get("cp") == 15

    def test_qft160_matches_paper_count_without_swaps(self):
        circuit = qft(160, with_swaps=False)
        assert circuit.num_two_qubit_gates == 25440

    def test_quantum_volume_two_qubit_count(self):
        circuit = quantum_volume(10, depth=10, seed=3)
        assert circuit.num_two_qubit_gates == 10 * 5 * 3

    def test_quantum_volume_is_seeded(self):
        a = quantum_volume(8, seed=5)
        b = quantum_volume(8, seed=5)
        assert a.gates == b.gates

    def test_vqe_uccsd_structure(self):
        circuit = vqe_uccsd(12, seed=2)
        assert circuit.num_qubits == 12
        assert circuit.num_two_qubit_gates > 0
        # Hartree-Fock initialisation flips the first half of the register.
        x_targets = [g.qubits[0] for g in circuit.gates if g.name == "x"]
        assert x_targets[:6] == list(range(6))

    def test_wstate_generator(self):
        circuit = w_state(6)
        assert circuit.num_qubits == 6
        assert circuit.num_two_qubit_gates == 10


class TestRegistry:
    def test_get_circuit_parses_names(self):
        circuit = get_circuit("qft_n29")
        assert circuit.num_qubits == 29

    def test_get_circuit_with_compound_family(self):
        assert get_circuit("swap_test_n115").num_qubits == 115
        assert get_circuit("vqe_uccsd_n28").num_qubits == 28

    def test_get_circuit_unknown_name(self):
        with pytest.raises(KeyError):
            get_circuit("nonsense")

    def test_build_unknown_family(self):
        with pytest.raises(KeyError):
            build("nope", 4)

    def test_every_advertised_circuit_builds(self):
        for name in available_circuits():
            circuit = get_circuit(name)
            expected_qubits = int(name.rpartition("_n")[2])
            assert circuit.num_qubits == expected_qubits
            assert circuit.num_gates > 0

    def test_parse_circuit_name(self):
        assert parse_circuit_name("qft_n63") == ("qft", 63)
        assert parse_circuit_name("swap_test_n115") == ("swap_test", 115)
        assert parse_circuit_name("nope_n4") == ("nope", 4)
        for name in ("nonsense", "_n4", "qft_nx"):
            with pytest.raises(KeyError):
                parse_circuit_name(name)

    def test_every_family_builds_the_width_its_name_gives(self):
        # Trace replay refuses a circuit wider than the cloud by its name
        # alone, before building it.
        for family in CIRCUIT_FAMILIES:
            for num_qubits in range(1, 13):
                try:
                    circuit = build(family, num_qubits)
                except ValueError:
                    continue
                assert circuit.num_qubits == num_qubits, (family, num_qubits)

#include "workloads/benchmarks.hh"

#include <cmath>
#include <set>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace adapt
{

namespace
{

/** Controlled phase: CP(lambda) = diag(1, 1, 1, e^{i lambda}). */
void
cp(Circuit &c, double lambda, QubitId control, QubitId target)
{
    c.u1(lambda / 2.0, control);
    c.cx(control, target);
    c.u1(-lambda / 2.0, target);
    c.cx(control, target);
    c.u1(lambda / 2.0, target);
}

/** Toffoli via the standard 6-CX / 7-T decomposition. */
void
ccx(Circuit &c, QubitId a, QubitId b, QubitId t)
{
    c.h(t);
    c.cx(b, t);
    c.tdg(t);
    c.cx(a, t);
    c.t(t);
    c.cx(b, t);
    c.tdg(t);
    c.cx(a, t);
    c.t(b);
    c.t(t);
    c.h(t);
    c.cx(a, b);
    c.t(a);
    c.tdg(b);
    c.cx(a, b);
}

/** Inverse QFT on qubits [0, n): undo the bit-reversal swaps, then
 *  the controlled-phase ladder with negated angles, each qubit closed
 *  by H. */
void
inverseQftRotations(Circuit &c, int n)
{
    for (int i = 0; i < n / 2; i++)
        c.swap(i, n - 1 - i);
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < i; j++)
            cp(c, -std::ldexp(kPi, -(i - j)), j, i);
        c.h(i);
    }
}

} // namespace

Circuit
makeBernsteinVazirani(int num_qubits, uint64_t secret)
{
    require(num_qubits >= 2, "BV needs at least one data qubit");
    const int data = num_qubits - 1;
    const QubitId ancilla = num_qubits - 1;
    Circuit c(num_qubits, data);

    c.x(ancilla);
    c.h(ancilla);
    for (QubitId q = 0; q < data; q++)
        c.h(q);
    for (QubitId q = 0; q < data; q++) {
        if (secret & (uint64_t{1} << q))
            c.cx(q, ancilla);
    }
    for (QubitId q = 0; q < data; q++)
        c.h(q);
    for (QubitId q = 0; q < data; q++)
        c.measure(q, q);
    return c;
}

Circuit
makeQft(int num_qubits, QftState state)
{
    // Phase-encoded input: prepare QFT|x> as a product state (H plus
    // per-qubit U1 phases), then apply the inverse Fourier transform.
    // The ideal output is peaked at |x>, so Fidelity = 1 - TVD is
    // sharply sensitive to idling errors.  Variant B encodes a
    // *fractional* x, spreading the peak over neighbouring outcomes
    // (a different input state with identical circuit structure).
    Circuit c(num_qubits);
    double x = 0.0;
    // ldexp throughout: 64-bit shifts overflow once the register
    // reaches 64 qubits (same class of bug as the rotation ladder).
    for (QubitId q = 0; q < num_qubits; q += 2)
        x += std::ldexp(1.0, q);
    if (state == QftState::B)
        x = x / 2.0 + 0.37;
    const double dim = std::ldexp(1.0, num_qubits);
    for (QubitId q = 0; q < num_qubits; q++) {
        c.h(q);
        const double phase = 2.0 * kPi * x * std::ldexp(1.0, q) / dim;
        c.u1(phase, q);
    }
    inverseQftRotations(c, num_qubits);
    c.measureAll();
    return c;
}

Circuit
makeQaoa(int num_qubits, QaoaGraph graph, uint64_t seed)
{
    require(num_qubits >= 3, "QAOA instance needs at least 3 qubits");
    std::vector<std::pair<QubitId, QubitId>> edges;
    std::set<std::pair<QubitId, QubitId>> seen;
    auto add_edge = [&](QubitId a, QubitId b) {
        if (a > b)
            std::swap(a, b);
        if (a != b && seen.insert({a, b}).second)
            edges.emplace_back(a, b);
    };
    for (QubitId q = 0; q < num_qubits; q++)
        add_edge(q, (q + 1) % num_qubits);
    if (graph == QaoaGraph::B) {
        Rng rng(seed);
        const int chords = num_qubits / 2;
        int added = 0;
        while (added < chords) {
            const auto a = static_cast<QubitId>(
                rng.uniformInt(static_cast<uint64_t>(num_qubits)));
            const auto b = static_cast<QubitId>(
                rng.uniformInt(static_cast<uint64_t>(num_qubits)));
            const size_t before = seen.size();
            add_edge(a, b);
            if (seen.size() != before)
                added++;
        }
    }

    // p = 1 MaxCut ansatz with non-Clifford angles.
    const double gamma = 0.7;
    const double beta = 0.4;
    Circuit c(num_qubits);
    for (QubitId q = 0; q < num_qubits; q++)
        c.h(q);
    for (const auto &[a, b] : edges) {
        c.cx(a, b);
        c.rz(2.0 * gamma, b);
        c.cx(a, b);
    }
    for (QubitId q = 0; q < num_qubits; q++)
        c.rx(2.0 * beta, q);
    c.measureAll();
    return c;
}

Circuit
makeAdder(int bits_per_operand, uint64_t a, uint64_t b)
{
    require(bits_per_operand >= 1, "adder needs at least 1 bit");
    const int bits = bits_per_operand;
    // Qubit layout (Cuccaro): 0 = carry-in, then (b_i, a_i) pairs,
    // last = carry-out.  4 qubits for the 1-bit paper ADDER.
    const int n = 2 * bits + 2;
    auto bq = [&](int i) { return 1 + 2 * i; };     // b_i
    auto aq = [&](int i) { return 2 + 2 * i; };     // a_i
    const QubitId cout = n - 1;
    Circuit c(n, bits + 1);

    for (int i = 0; i < bits; i++) {
        if (a & (uint64_t{1} << i))
            c.x(aq(i));
        if (b & (uint64_t{1} << i))
            c.x(bq(i));
    }

    auto maj = [&](QubitId x, QubitId y, QubitId z) {
        c.cx(z, y);
        c.cx(z, x);
        ccx(c, x, y, z);
    };
    auto uma = [&](QubitId x, QubitId y, QubitId z) {
        ccx(c, x, y, z);
        c.cx(z, x);
        c.cx(x, y);
    };

    maj(0, bq(0), aq(0));
    for (int i = 1; i < bits; i++)
        maj(aq(i - 1), bq(i), aq(i));
    c.cx(aq(bits - 1), cout);
    for (int i = bits - 1; i >= 1; i--)
        uma(aq(i - 1), bq(i), aq(i));
    uma(0, bq(0), aq(0));

    // Sum lands on the b register; carry-out on the last qubit.
    for (int i = 0; i < bits; i++)
        c.measure(bq(i), i);
    c.measure(cout, bits);
    return c;
}

Circuit
makeQpe(int counting_qubits, double phase)
{
    require(counting_qubits >= 1, "QPE needs a counting register");
    const int n = counting_qubits + 1;
    const QubitId eigen = counting_qubits;
    Circuit c(n, counting_qubits);

    c.x(eigen); // |1> eigenstate of U1(theta)
    for (QubitId q = 0; q < counting_qubits; q++)
        c.h(q);
    for (int k = 0; k < counting_qubits; k++) {
        const double lambda =
            2.0 * kPi * phase * static_cast<double>(uint64_t{1} << k);
        cp(c, lambda, k, eigen);
    }
    inverseQftRotations(c, counting_qubits);
    for (QubitId q = 0; q < counting_qubits; q++)
        c.measure(q, q);
    return c;
}

Circuit
makeSyndromeExtraction(int data_qubits, int rounds)
{
    require(data_qubits >= 2,
            "syndrome extraction needs at least two data qubits");
    require(rounds >= 1,
            "syndrome extraction needs at least one round");
    const int n = 2 * data_qubits - 1;
    const int ancillas = data_qubits - 1;
    Circuit c(n, ancillas + data_qubits);

    // Encode logical |+>: GHZ chain over the data qubits (even
    // indices).  Data neighbours are distance 2 on the line, so each
    // chain CX routes through the ancilla between them with the
    // 4-CX distance-2 CNOT identity (middle in any state).
    c.h(0);
    for (int i = 1; i < data_qubits; i++) {
        const QubitId m = 2 * i - 1;
        c.cx(2 * (i - 1), m);
        c.cx(m, 2 * i);
        c.cx(2 * (i - 1), m);
        c.cx(m, 2 * i);
    }

    for (int r = 0; r < rounds; r++) {
        for (int i = 0; i < ancillas; i++) {
            const QubitId a = 2 * i + 1;
            c.cx(2 * i, a);
            c.cx(2 * i + 2, a);
        }
        for (int i = 0; i < ancillas; i++) {
            const QubitId a = 2 * i + 1;
            c.measure(a, i); // clbit i reused every round
            c.xIf(2 * i + 2, i);
            c.reset(a);
        }
    }
    for (int i = 0; i < data_qubits; i++)
        c.measure(2 * i, ancillas + i);
    return c;
}

std::vector<Workload>
paperBenchmarks()
{
    std::vector<Workload> suite;
    suite.push_back({"BV-7", makeBernsteinVazirani(7, 0b101011)});
    suite.push_back({"BV-8", makeBernsteinVazirani(8, 0b1011011)});
    suite.push_back({"QFT-6A", makeQft(6, QftState::A)});
    suite.push_back({"QFT-6B", makeQft(6, QftState::B)});
    suite.push_back({"QFT-7A", makeQft(7, QftState::A)});
    suite.push_back({"QFT-7B", makeQft(7, QftState::B)});
    suite.push_back({"QAOA-8A", makeQaoa(8, QaoaGraph::A)});
    suite.push_back({"QAOA-8B", makeQaoa(8, QaoaGraph::B)});
    suite.push_back({"QAOA-10A", makeQaoa(10, QaoaGraph::A)});
    suite.push_back({"QAOA-10B", makeQaoa(10, QaoaGraph::B)});
    suite.push_back({"QPEA-5", makeQpe(4, 1.0 / 8.0)});
    return suite;
}

std::vector<Workload>
smallBenchmarks()
{
    std::vector<Workload> suite;
    suite.push_back({"QFT-5", makeQft(5, QftState::A)});
    suite.push_back({"QAOA-5", makeQaoa(5, QaoaGraph::A)});
    suite.push_back({"Adder", makeAdder(1, 1, 1)});
    return suite;
}

} // namespace adapt

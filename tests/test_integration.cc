/**
 * @file
 * End-to-end integration tests: the full pipeline (workload ->
 * transpile -> noise machine -> DD policies -> fidelity) behaves as
 * the paper describes, plus cross-module invariants no unit suite
 * covers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "adapt/policies.hh"
#include "common/logging.hh"
#include "experiments/characterization.hh"
#include "experiments/harness.hh"
#include "sim/statevector.hh"
#include "test_util.hh"
#include "workloads/benchmarks.hh"

using namespace adapt;
using namespace adapt::testutil;

TEST(Integration, DdImprovesIdleDominatedWorkload)
{
    // QFT-5 on Guadalupe is idle-dominated: All-DD must beat No-DD
    // under the full noise model.
    const Device device = Device::ibmqGuadalupe();
    const Calibration cal = device.calibration(0);
    const NoisyMachine machine(device);
    const CompiledProgram p =
        transpile(makeQft(5, QftState::A), device, cal);
    const Distribution ideal = idealDistribution(p.physical);
    PolicyOptions opt;
    opt.shots = 1500;
    const double no_dd =
        evaluatePolicy(Policy::NoDD, p, machine, ideal, opt).fidelity;
    const double all_dd =
        evaluatePolicy(Policy::AllDD, p, machine, ideal, opt).fidelity;
    EXPECT_GT(all_dd, no_dd * 1.2);
}

TEST(Integration, AdaptMaskBeatsNoDdOnIdleDominatedWorkload)
{
    const Device device = Device::ibmqGuadalupe();
    const Calibration cal = device.calibration(0);
    const NoisyMachine machine(device);
    const CompiledProgram p =
        transpile(makeQft(5, QftState::A), device, cal);
    const Distribution ideal = idealDistribution(p.physical);
    PolicyOptions opt;
    opt.shots = 1500;
    opt.adapt.decoyShots = 500;
    const double no_dd =
        evaluatePolicy(Policy::NoDD, p, machine, ideal, opt).fidelity;
    const PolicyOutcome adapt_out =
        evaluatePolicy(Policy::Adapt, p, machine, ideal, opt);
    EXPECT_GT(adapt_out.fidelity, no_dd);
    // The search actually selected qubits.
    int selected = 0;
    for (bool bit : adapt_out.logicalMask)
        selected += bit;
    EXPECT_GT(selected, 0);
}

TEST(Integration, SuiteHarnessOrdersPolicies)
{
    // Shallow workload, full harness path: Runtime-Best must not
    // trail the fixed policies by more than sampling noise.
    const Device device = Device::ibmqGuadalupe();
    SuiteOptions options;
    options.policy.shots = 800;
    options.policy.adapt.decoyShots = 200;
    options.policy.runtimeBestBudget = 16;
    const Workload w{"BV-5", makeBernsteinVazirani(5, 0b1011)};
    const SuiteRow row =
        evaluateWorkload(w, device, DDProtocol::XY4, options);
    EXPECT_GT(row.baselineFidelity, 0.0);
    EXPECT_GE(row.relative(Policy::RuntimeBest),
              row.relative(Policy::NoDD) - 0.1);
    const Summary s = summarize({row}, Policy::RuntimeBest);
    EXPECT_NEAR(s.min, s.max, 1e-12); // single row
}

TEST(Integration, ReducedPaperSuiteIsThreadInvariantAndAdaptBeatsNoDd)
{
    // The Fig. 13 / Table 5 suite on ibmq_toronto at reduced shot
    // counts, without its costliest program (QAOA-10A).  Every
    // nesting level fans out across the pool (workloads, candidate
    // batches, shots), so the rows must not depend on the suite's
    // thread count; and the paper's headline result must hold.
    const Device device = Device::ibmqToronto();
    std::vector<Workload> suite;
    for (Workload &w : paperBenchmarks()) {
        if (w.name != "QAOA-10A")
            suite.push_back(std::move(w));
    }
    ASSERT_EQ(suite.size(), 10u);
    SuiteOptions options;
    options.policy.shots = 200;
    options.policy.adapt.decoyShots = 100;
    options.policy.runtimeBestBudget = 4;
    const auto rowsAt = [&](int threads) {
        SuiteOptions o = options;
        o.threads = threads;
        return evaluateSuite(suite, device, DDProtocol::XY4, o);
    };

    const std::vector<SuiteRow> serial = rowsAt(1);
    ASSERT_EQ(serial.size(), suite.size());
    for (int threads : {4, 0}) {
        const std::vector<SuiteRow> rows = rowsAt(threads);
        ASSERT_EQ(rows.size(), serial.size());
        for (size_t i = 0; i < rows.size(); i++) {
            EXPECT_EQ(rows[i].workload, serial[i].workload);
            EXPECT_EQ(rows[i].baselineFidelity, serial[i].baselineFidelity)
                << rows[i].workload << " at threads " << threads;
            EXPECT_EQ(rows[i].fidelity, serial[i].fidelity)
                << rows[i].workload << " at threads " << threads;
        }
    }
    EXPECT_GT(summarize(serial, Policy::Adapt).gmean, 1.0);
}

TEST(Integration, DecoySearchTransfersAcrossProtocols)
{
    // The ADAPT pipeline runs unchanged under CPMG — the paper's
    // protocol-independence claim (Sec. 6.4).
    const Device device = Device::ibmqGuadalupe();
    const NoisyMachine machine(device);
    const CompiledProgram p = transpile(
        makeQaoa(6, QaoaGraph::A), device, device.calibration(0));
    AdaptOptions opt;
    opt.decoyShots = 200;
    opt.dd.protocol = DDProtocol::CPMG;
    const AdaptResult result = adaptSearch(p, machine, opt);
    EXPECT_EQ(result.logicalMask.size(), 6u);
    EXPECT_GT(result.bestDecoyFidelity, 0.0);
}

TEST(Integration, MeasuredFidelityDegradesWithProgramDepth)
{
    // NISQ model sanity: fidelity decreases monotonically (within
    // noise) as the same workload family deepens.
    const Device device = Device::ibmqGuadalupe();
    const Calibration cal = device.calibration(0);
    const NoisyMachine machine(device);
    double previous = 1.1;
    for (int n : {3, 5, 7}) {
        const Circuit qft = makeQft(n, QftState::A);
        const CompiledProgram p = transpile(qft, device, cal);
        const double fid = fidelity(
            idealDistribution(p.physical),
            machine.run(p.schedule, 1500, 77));
        EXPECT_LT(fid, previous + 0.05) << "n = " << n;
        previous = fid;
    }
}

TEST(Integration, CharacterizationAndProgramViewsAgree)
{
    // The (qubit, link) combos that look bad in characterization
    // are device properties, not artifacts: the worst combo's
    // crosstalk rate in the calibration must exceed the best's.
    const Device device = Device::ibmqLondon();
    const NoisyMachine machine(device);
    const Calibration &cal = machine.calibration();
    const auto combos = device.topology().spectatorCombos();
    DDOptions dd;
    double worst_fid = 2.0, best_fid = -1.0;
    double worst_rate = 0.0, best_rate = 0.0;
    uint64_t seed = 31;
    for (const SpectatorCombo &combo : combos) {
        CharacterizationConfig config;
        config.spectator = combo.spectator;
        config.drivenLink = combo.linkIndex;
        config.idleNs = 6000.0;
        const double fid = characterizationFidelity(
            machine, config, dd, false, 1200, ++seed);
        const double rate = std::abs(
            cal.crosstalk(combo.linkIndex, combo.spectator));
        if (fid < worst_fid) {
            worst_fid = fid;
            worst_rate = rate;
        }
        if (fid > best_fid) {
            best_fid = fid;
            best_rate = rate;
        }
    }
    EXPECT_GE(worst_rate, best_rate);
}

TEST(Integration, FullPipelineIsDeterministic)
{
    // Same seeds end-to-end => identical policy outcome, including
    // the ADAPT search result.
    const Device device = Device::ibmqGuadalupe();
    const Calibration cal = device.calibration(0);
    const NoisyMachine machine(device);
    const CompiledProgram p =
        transpile(makeQaoa(5, QaoaGraph::A), device, cal);
    const Distribution ideal = idealDistribution(p.physical);
    PolicyOptions opt;
    opt.shots = 500;
    opt.adapt.decoyShots = 200;
    const PolicyOutcome a =
        evaluatePolicy(Policy::Adapt, p, machine, ideal, opt);
    const PolicyOutcome b =
        evaluatePolicy(Policy::Adapt, p, machine, ideal, opt);
    EXPECT_EQ(a.logicalMask, b.logicalMask);
    EXPECT_TRUE(distributionsIdentical(a.output, b.output));
    EXPECT_NEAR(a.fidelity, b.fidelity, 1e-12);
}

TEST(Integration, AblationWithoutCoherentNoiseTakesFastPath)
{
    // The noise-decomposition ablation with only Pauli channels on a
    // Clifford workload (BV is all-Clifford) must auto-dispatch to
    // the stabilizer backend and still order policies sensibly.
    const Device device = Device::ibmqGuadalupe();
    const Calibration cal = device.calibration(0);
    const NoisyMachine machine(device, 0, NoiseFlags::pauliOnly());
    const CompiledProgram p =
        transpile(makeBernsteinVazirani(5, 0b1011), device, cal);
    EXPECT_EQ(machine.chooseBackend(p.schedule),
              BackendKind::Stabilizer);

    const Distribution ideal = idealDistribution(p.physical);
    PolicyOptions opt;
    opt.shots = 2000;
    const PolicyOutcome out =
        evaluatePolicy(Policy::NoDD, p, machine, ideal, opt);
    EXPECT_GT(out.fidelity, 0.3);
    // Forcing the dense backend on the same job agrees in law.
    PolicyOptions dense_opt = opt;
    dense_opt.adapt.backend = BackendKind::Dense;
    const PolicyOutcome dense_out =
        evaluatePolicy(Policy::NoDD, p, machine, ideal, dense_opt);
    EXPECT_LT(std::abs(out.fidelity - dense_out.fidelity), 0.05);
}

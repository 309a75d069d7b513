/**
 * @file
 * Synthetic device fleets and calibration-drift sweeps.
 *
 * The fleet generator stamps out runcard-described devices (varied
 * topologies, jittered noise profiles, a few pinned overrides) and
 * round-trips every one through runcardText -> parseRuncard, so the
 * fleet is also an end-to-end exercise of the runcard layer.
 *
 * The drift sweep is the serving scenario the structure/bind compile
 * split targets: one executable, scheduled once, re-prepared against
 * every device's drifting calibration cycles.  With the skeleton
 * cache installed only the bind phase runs per (device, cycle); the
 * sweep times that against cold compiles and reports the speedup and
 * hit rates.
 */

#ifndef ADAPT_EXPERIMENTS_FLEET_HH
#define ADAPT_EXPERIMENTS_FLEET_HH

#include <cstdint>
#include <vector>

#include "device/device.hh"
#include "noise/noise_model.hh"
#include "workloads/benchmarks.hh"

namespace adapt
{

struct FleetOptions
{
    /** Fleet size; >= 1. */
    int devices = 8;

    /** Base seed; each member derives its profile from fork(i + 1). */
    uint64_t seed = 0xf1ee7;
};

/**
 * Generate a synthetic fleet: every device is built in code, printed
 * with runcardText(), and re-parsed with parseRuncard() — the
 * returned Devices all went through the text format.  Topologies
 * cycle through linear / ring / grid / all-to-all shapes of >= 5
 * qubits (large enough for the 5-qubit paper workloads).
 */
std::vector<Device> makeSyntheticFleet(const FleetOptions &options = {});

struct DriftSweepOptions
{
    /** Calibration cycles swept per device; >= 1. */
    int cycles = 4;

    /** Trajectories per (device, cycle) execution; 0 skips runs
     *  (prepare-only sweep). */
    int shots = 256;

    /** Run seed for the per-cycle executions. */
    uint64_t seed = 1;

    /** Noise channels for the sweep's machines.  all() drives the
     *  dense path; pauliOnly() routes Clifford workloads to the
     *  frame path, whose compile-time reference-tableau walk is the
     *  most expensive (and most cacheable) structure phase. */
    NoiseFlags flags = NoiseFlags::all();
};

/** Timings and cache counters from one drift sweep. */
struct DriftSweepResult
{
    int devices = 0;
    int cycles = 0;
    int prepares = 0; //!< devices * cycles (per timing mode)

    /** Total prepare() wall time with the cache disabled (full
     *  structure + bind compile per call). */
    double coldPrepareMs = 0.0;

    /** Total prepare() wall time against a warm skeleton cache
     *  (bind phase only). */
    double rebindPrepareMs = 0.0;

    /** coldPrepareMs / rebindPrepareMs. */
    double speedup = 0.0;

    /** Sweep-local cache counters: every timed re-bind hits
     *  (devices * cycles), and each device's untimed warm-up build
     *  misses. */
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;

    /** Mean fidelity across the fleet per cycle (shots > 0 only):
     *  the end-to-end proof that re-bound programs execute. */
    std::vector<double> meanFidelityPerCycle;
};

/**
 * Prepare and execute @p workload on every fleet member across
 * drifting calibration cycles, timing cold compiles against cache
 * re-binds.  The schedule is built once per device (cycle-0
 * calibration — executables keep their timing while the device
 * drifts underneath); the skeleton cache is local to the sweep, so
 * results do not perturb (or depend on) the process-shared cache.
 */
DriftSweepResult driftSweep(const std::vector<Device> &fleet,
                            const Workload &workload,
                            const DriftSweepOptions &options = {});

} // namespace adapt

#endif // ADAPT_EXPERIMENTS_FLEET_HH

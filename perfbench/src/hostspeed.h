// Host speed. On a shared host this machine's vCPUs run 20-30% faster or
// slower for minutes at a time, depending on what other guests run on the
// same physical cores. No guest counter shows it (steal stays near 0), and
// a whole run moves with it: ten knn-cold runs in a row on a 4-vCPU VM
// gave 1364-1768 QPS, in two blocks of consecutive runs.
//
// So a run times a fixed reference computation on every core right before
// each server it measures, and right after the last, and the end-to-end
// timings are scaled by the median of those times to the reference's
// nominal speed (see ScaleToNominal). The reference shares no code with
// the program, so a change to the program cannot move it, only the host
// can. It runs while no server is up, so it does not slow the program
// either.

#ifndef PERFBENCH_HOSTSPEED_H_
#define PERFBENCH_HOSTSPEED_H_

#include <cmath>
#include <cstddef>

namespace perfbench {

/// The reference pass time the scaled figures are expressed at: about what
/// ReferencePassSeconds(4) gave on a 4-vCPU AVX-512 VM. Any constant would
/// do; this one keeps scaled figures close to raw ones on that machine.
constexpr double kNominalPassSeconds = 100e-6;

/// Seconds one pass of the reference computation takes on this host now:
/// the median over the passes `threads` threads make at the same time in
/// about 0.5 s. A pass merges two sorted arrays and gathers from a 4 MiB
/// table, the kinds of work the program does most (sorted-set
/// intersection, scattered reads from memory).
double ReferencePassSeconds(size_t threads);

/// How much of the reference's change in speed the program's serving
/// speed follows. Fitted on about 80 runs of the three workloads across
/// reference passes of 88-130 us, the exponent of serving speed against
/// reference speed ranged 0.7-1.1 by workload and hour; scaling by the
/// full change over-corrects in slow phases (range-pipelined qps spread
/// 0.084 scaled fully, 0.076 at 0.75, 0.140 raw).
constexpr double kHostExponent = 0.75;

/// The factor that takes a run's timings to the nominal host speed: a
/// rate is multiplied by it, a duration divided.
inline double ScaleToNominal(double pass_seconds) {
  return std::pow(pass_seconds / kNominalPassSeconds, kHostExponent);
}

}  // namespace perfbench

#endif  // PERFBENCH_HOSTSPEED_H_

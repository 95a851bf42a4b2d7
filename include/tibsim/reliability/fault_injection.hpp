#pragma once
// Fault-injection harness closing the loop on Section 6.3: the DRAM
// reliability model says how often a non-ECC mobile memory system takes a
// bit flip; this module injects one such fault into a live stepped
// collective run and demonstrates that the runtime collective verifier
// (--verify-collectives) turns the resulting silent control-flow
// divergence into a deterministic, attributed mismatch report instead of
// a hang. The divergence is data-driven (the flip corrupts a convergence
// residual, which then skips the step's allreduce), so the static
// collective-match lint rule cannot see it — exactly the class of defect
// the dynamic verifier exists to catch.

#include <cstdint>
#include <string>

#include "tibsim/mpi/simmpi.hpp"
#include "tibsim/reliability/dram_errors.hpp"

namespace tibsim::reliability {

/// Where the injected fault strikes, sampled deterministically from a
/// seeded Rng so the same (ranks, steps, seed) always plans the same
/// strike. The DRAM model's system-level hazard rides along for reporting.
struct FaultPlan {
  int victimRank = 0;
  int victimStep = 1;
  double dailyErrorProbability = 0.0;  ///< model hazard backing the draw
};

/// Plan one bit-flip strike: a uniform victim rank and a uniform step in
/// [1, steps) — never step 0, so the verifier always sees a clean prefix
/// before the divergence.
FaultPlan planCollectiveFault(const DramErrorModel& model, int ranks,
                              int steps, std::uint64_t seed);

/// Run a hydro-style stepped loop (compute, allreduceMax convergence
/// test, barrier) of `steps` iterations with the planned fault injected:
/// at the victim's step the flip zeroes its residual, its control flow
/// takes the "already converged" branch and skips the allreduce while
/// still entering the barrier. The world runs with verifyCollectives
/// forced on; returns the mismatch report starting at its
/// "collective mismatch" marker (empty if the run — unexpectedly —
/// completes). Every byte of the report is simulation-derived, so it is
/// identical across runs.
std::string runCollectiveFaultDemo(mpi::WorldConfig config, int ranks,
                                   int steps, const FaultPlan& plan);

}  // namespace tibsim::reliability

#pragma once
// Fiber stack telemetry: pattern-fill a stack at creation, scan it on
// teardown to find the high-water mark. Every fiber owns a plain mapped
// stack, so "how much did this rank actually use" is one linear scan for
// the first overwritten fill byte — no guard pages, no signal handlers.
// High-water marks feed EngineStats and let TIBSIM_FIBER_STACK_KB be
// shrunk below 64 KiB with evidence instead of hope (ROADMAP item).

#include <cstddef>

namespace tibsim::obs {

/// The fill byte. Chosen not to collide with common stack contents
/// (0x00/0xff) so an untouched word is recognisably untouched.
inline constexpr unsigned char kStackFillByte = 0xA5;

/// Fill [base, base + bytes) with the pattern. Call before the stack is
/// armed (makecontext), never after the fiber has run.
void patternFillStack(void* base, std::size_t bytes);

/// Bytes used from the top of a downward-growing stack: scans from the low
/// address (the deep end) for the first non-pattern byte. A fiber that
/// never ran reports 0; a fully-scribbled stack reports `bytes` (overflow —
/// the caller should treat HWM == bytes as "undersized").
std::size_t scanStackHighWater(const void* base, std::size_t bytes);

}  // namespace tibsim::obs

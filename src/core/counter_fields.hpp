#pragma once
// The name and order of every counter a result document serialises,
// written once. Each list is a callable taking one record and a visitor,
// and calls visit(name, field) for the record's fields in artefact order.
// resultDocument and the __engine/__worlds/__links CSV writers
// (campaign.cpp) emit from these lists, and ResultCache::load reads a
// stored document back through them, so the writers and the reader cannot
// drift apart. A const record serves the writers, a mutable one the reader.

namespace tibsim::core::fields {

/// sim::EngineStats: the six deterministic fields. hostSeconds and the
/// stack telemetry are host measurements and never serialised.
inline constexpr auto engine = [](auto& e, auto&& visit) {
  visit("eventsDispatched", e.eventsDispatched);
  visit("contextSwitches", e.contextSwitches);
  visit("processesSpawned", e.processesSpawned);
  visit("peakLiveProcesses", e.peakLiveProcesses);
  visit("queueHighWater", e.queueHighWater);
  visit("simSeconds", e.simSeconds);
};

/// obs::RunCounters: the `worlds` object and __worlds.csv.
inline constexpr auto worlds = [](auto& c, auto&& visit) {
  visit("worlds", c.worlds);
  visit("messages", c.messages);
  visit("payloadBytes", c.payloadBytes);
  visit("wireBytes", c.wireBytes);
  visit("traceSpansRecorded", c.spansRecorded);
  visit("traceSpansRetained", c.spansRetained);
  visit("traceMemoryPeakBytes", c.traceMemoryPeakBytes);
  visit("payloadInlineMessages", c.payloadInlineMessages);
  visit("payloadPooledMessages", c.payloadPooledMessages);
  visit("payloadPoolReuses", c.payloadPoolReuses);
  visit("payloadPoolAllocations", c.payloadPoolAllocations);
  visit("payloadPoolReturns", c.payloadPoolReturns);
  visit("payloadPoolTrimmedBuffers", c.payloadPoolTrimmedBuffers);
  visit("payloadPoolLiveHighWater", c.payloadPoolLiveHighWater);
};

/// RunCounters::collectiveChecks follows the `worlds` list in the JSON
/// only, and only on --verify-collectives runs, so unverified artefacts
/// keep their historical bytes.
inline constexpr const char* collectiveChecks = "collectiveChecks";

/// obs::LinkStats: the three link classes.
inline constexpr auto linkKinds = [](auto& links, auto&& visit) {
  visit("uplink", links.uplink);
  visit("core", links.core);
  visit("downlink", links.downlink);
};

/// obs::LinkKindCounters: the five scalars of one link class.
inline constexpr auto linkKind = [](auto& k, auto&& visit) {
  visit("busySeconds", k.busySeconds);
  visit("bytes", k.bytes);
  visit("transfers", k.transfers);
  visit("queueSeconds", k.queueSeconds);
  visit("maxLinkBusySeconds", k.maxLinkBusySeconds);
};

/// A link class's queueDelay histogram follows its scalars: the nonzero
/// buckets only, as [bucketLowerSeconds, count] pairs.
inline constexpr const char* queueDelay = "queueDelay";

/// obs::CriticalPath.
inline constexpr auto criticalPath = [](auto& p, auto&& visit) {
  visit("computeSeconds", p.computeSeconds);
  visit("sendSeconds", p.sendSeconds);
  visit("recvSeconds", p.recvSeconds);
  visit("linkSeconds", p.linkSeconds);
  visit("waitSeconds", p.waitSeconds);
  visit("edges", p.edges);
  visit("endRank", p.endRank);
};

}  // namespace tibsim::core::fields

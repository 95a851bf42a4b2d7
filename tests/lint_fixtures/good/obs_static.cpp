// Fixture: per-sink member state keeps obs recording per world, and a
// process-wide configuration slot written only from the host thread is
// waived explicitly.
struct Sink {
  unsigned long long recorded = 0;
  void record() { ++recorded; }
};

int defaultMode() {
  static int slot = 0;  // tibsim-lint: allow(sim-static)
  return slot;
}

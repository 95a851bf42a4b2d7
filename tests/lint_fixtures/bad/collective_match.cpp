// Deliberate collective-matching violations: branches on rank-derived
// conditions whose arms reach different collective sequences.
struct Comm {
  int rank() const;
  void barrier();
  void bcast(double v);
  void allreduce(double v);
};

void divergentArms(Comm& world) {
  if (world.rank() == 0) {
    world.bcast(1.0);
    world.barrier();
  } else {
    world.barrier();
  }
}

void earlyReturnSkipsCollective(Comm& world) {
  const bool leader = world.rank() == 0;
  if (leader) return;
  world.allreduce(2.0);
}
